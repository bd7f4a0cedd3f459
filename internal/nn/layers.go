package nn

import (
	"fmt"
	"math"

	"clustersoc/internal/kernels"
)

// Layer is one network stage.
type Layer interface {
	Name() string
	// OutShape returns the output shape for a given input shape.
	OutShape(in Shape) Shape
	// Forward runs inference.
	Forward(in *Tensor) *Tensor
	// FLOPs returns the floating-point operations for one input of the
	// given shape (multiply and add counted separately).
	FLOPs(in Shape) float64
	// Params returns the learned parameter count.
	Params(in Shape) int
}

// Conv is a 2D convolution with square kernels, ReLU optional via Act.
type Conv struct {
	Label       string
	OutC, K     int
	Stride, Pad int
	Groups      int
	seed        uint64
	weights     []float64
	bias        []float64
	weightsInC  int
}

// NewConv builds a convolution layer. groups=2 reproduces AlexNet's split
// convolutions.
func NewConv(label string, outC, k, stride, pad, groups int, seed uint64) *Conv {
	if groups < 1 {
		groups = 1
	}
	return &Conv{Label: label, OutC: outC, K: k, Stride: stride, Pad: pad, Groups: groups, seed: seed}
}

// Name returns the layer label.
func (c *Conv) Name() string { return c.Label }

// OutShape computes the convolution output shape.
func (c *Conv) OutShape(in Shape) Shape {
	oh := (in.H+2*c.Pad-c.K)/c.Stride + 1
	ow := (in.W+2*c.Pad-c.K)/c.Stride + 1
	return Shape{C: c.OutC, H: oh, W: ow}
}

// Params counts weights + biases.
func (c *Conv) Params(in Shape) int {
	return c.OutC*(in.C/c.Groups)*c.K*c.K + c.OutC
}

// FLOPs counts 2 ops (mul+add) per MAC plus the bias add.
func (c *Conv) FLOPs(in Shape) float64 {
	out := c.OutShape(in)
	macs := float64(out.Elems()) * float64(in.C/c.Groups) * float64(c.K*c.K)
	return 2*macs + float64(out.Elems())
}

func (c *Conv) ensureWeights(inC int) {
	if c.weights != nil && c.weightsInC == inC {
		return
	}
	c.weightsInC = inC
	c.weights = make([]float64, c.OutC*(inC/c.Groups)*c.K*c.K)
	c.bias = make([]float64, c.OutC)
	fillWeights(c.weights, c.seed, (inC/c.Groups)*c.K*c.K)
	fillWeights(c.bias, c.seed^0x9e3779b9, 1)
}

// Forward runs the convolution (naive direct loops, output channels in
// parallel).
func (c *Conv) Forward(in *Tensor) *Tensor {
	c.ensureWeights(in.Shape.C)
	out := NewTensor(c.OutShape(in.Shape))
	inCPerG := in.Shape.C / c.Groups
	outCPerG := c.OutC / c.Groups
	kernels.ParallelFor(c.OutC, func(lo, hi int) {
		for oc := lo; oc < hi; oc++ {
			g := oc / outCPerG
			for oh := 0; oh < out.Shape.H; oh++ {
				for ow := 0; ow < out.Shape.W; ow++ {
					sum := c.bias[oc]
					for ic := 0; ic < inCPerG; ic++ {
						icAbs := g*inCPerG + ic
						wBase := ((oc*inCPerG + ic) * c.K) * c.K
						for kh := 0; kh < c.K; kh++ {
							ih := oh*c.Stride + kh - c.Pad
							if ih < 0 || ih >= in.Shape.H {
								continue
							}
							for kw := 0; kw < c.K; kw++ {
								iw := ow*c.Stride + kw - c.Pad
								if iw < 0 || iw >= in.Shape.W {
									continue
								}
								sum += c.weights[wBase+kh*c.K+kw] * in.At(icAbs, ih, iw)
							}
						}
					}
					out.Set(oc, oh, ow, sum)
				}
			}
		}
	})
	return out
}

// ReLU is the rectifier activation.
type ReLU struct{ Label string }

func (r *ReLU) Name() string            { return r.Label }
func (r *ReLU) OutShape(in Shape) Shape { return in }
func (r *ReLU) Params(Shape) int        { return 0 }
func (r *ReLU) FLOPs(in Shape) float64  { return float64(in.Elems()) }

// Forward clamps negatives to zero.
func (r *ReLU) Forward(in *Tensor) *Tensor {
	out := NewTensor(in.Shape)
	for i, v := range in.Data {
		if v > 0 {
			out.Data[i] = v
		}
	}
	return out
}

// Pool is max or average pooling.
type Pool struct {
	Label   string
	K       int
	Stride  int
	Pad     int
	Average bool
	// Global pools the whole spatial extent (GoogleNet's final layer).
	Global bool
}

func (p *Pool) Name() string { return p.Label }

// OutShape computes the pooled shape (ceil mode, as Caffe pools).
func (p *Pool) OutShape(in Shape) Shape {
	if p.Global {
		return Shape{C: in.C, H: 1, W: 1}
	}
	oh := int(math.Ceil(float64(in.H+2*p.Pad-p.K)/float64(p.Stride))) + 1
	ow := int(math.Ceil(float64(in.W+2*p.Pad-p.K)/float64(p.Stride))) + 1
	return Shape{C: in.C, H: oh, W: ow}
}

func (p *Pool) Params(Shape) int { return 0 }

// FLOPs counts one op per window element.
func (p *Pool) FLOPs(in Shape) float64 {
	out := p.OutShape(in)
	k := p.K
	if p.Global {
		return float64(in.Elems())
	}
	return float64(out.Elems()) * float64(k*k)
}

// Forward pools.
func (p *Pool) Forward(in *Tensor) *Tensor {
	out := NewTensor(p.OutShape(in.Shape))
	k, stride, pad := p.K, p.Stride, p.Pad
	if p.Global {
		k, stride, pad = in.Shape.H, 1, 0
	}
	kernels.ParallelFor(in.Shape.C, func(lo, hi int) {
		for c := lo; c < hi; c++ {
			for oh := 0; oh < out.Shape.H; oh++ {
				for ow := 0; ow < out.Shape.W; ow++ {
					best := math.Inf(-1)
					sum, cnt := 0.0, 0
					for kh := 0; kh < k; kh++ {
						ih := oh*stride + kh - pad
						if ih < 0 || ih >= in.Shape.H {
							continue
						}
						for kw := 0; kw < k; kw++ {
							iw := ow*stride + kw - pad
							if iw < 0 || iw >= in.Shape.W {
								continue
							}
							v := in.At(c, ih, iw)
							if v > best {
								best = v
							}
							sum += v
							cnt++
						}
					}
					if cnt == 0 {
						continue
					}
					if p.Average || p.Global {
						out.Set(c, oh, ow, sum/float64(cnt))
					} else {
						out.Set(c, oh, ow, best)
					}
				}
			}
		}
	})
	return out
}

// LRN is AlexNet/GoogleNet's local response normalization across channels.
type LRN struct {
	Label       string
	Size        int
	Alpha, Beta float64
}

func (l *LRN) Name() string            { return l.Label }
func (l *LRN) OutShape(in Shape) Shape { return in }
func (l *LRN) Params(Shape) int        { return 0 }

// FLOPs charges the window sum plus the power/divide per element.
func (l *LRN) FLOPs(in Shape) float64 { return float64(in.Elems()) * float64(l.Size+6) }

// Forward normalizes each activation by its cross-channel neighbourhood.
func (l *LRN) Forward(in *Tensor) *Tensor {
	out := NewTensor(in.Shape)
	half := l.Size / 2
	kernels.ParallelFor(in.Shape.C, func(lo, hi int) {
		for c := lo; c < hi; c++ {
			for h := 0; h < in.Shape.H; h++ {
				for w := 0; w < in.Shape.W; w++ {
					sum := 0.0
					for cc := c - half; cc <= c+half; cc++ {
						if cc < 0 || cc >= in.Shape.C {
							continue
						}
						v := in.At(cc, h, w)
						sum += v * v
					}
					scale := math.Pow(1+l.Alpha*sum/float64(l.Size), -l.Beta)
					out.Set(c, h, w, in.At(c, h, w)*scale)
				}
			}
		}
	})
	return out
}

// FC is a fully connected layer over the flattened input.
type FC struct {
	Label   string
	Out     int
	seed    uint64
	weights []float64
	bias    []float64
	inLen   int
}

// NewFC builds a fully connected layer.
func NewFC(label string, out int, seed uint64) *FC {
	return &FC{Label: label, Out: out, seed: seed}
}

func (f *FC) Name() string            { return f.Label }
func (f *FC) OutShape(in Shape) Shape { return Shape{C: f.Out, H: 1, W: 1} }
func (f *FC) Params(in Shape) int     { return f.Out*in.Elems() + f.Out }
func (f *FC) FLOPs(in Shape) float64  { return 2*float64(f.Out)*float64(in.Elems()) + float64(f.Out) }

// Forward multiplies by the weight matrix.
func (f *FC) Forward(in *Tensor) *Tensor {
	n := in.Shape.Elems()
	if f.weights == nil || f.inLen != n {
		f.inLen = n
		f.weights = make([]float64, f.Out*n)
		f.bias = make([]float64, f.Out)
		fillWeights(f.weights, f.seed, n)
		fillWeights(f.bias, f.seed^0xabcdef, 1)
	}
	// y = W*x + b: Gemv accumulates onto the preloaded biases.
	out := NewTensor(Shape{C: f.Out, H: 1, W: 1})
	copy(out.Data, f.bias)
	kernels.Gemv(out.Data, f.weights, in.Data, f.Out, n)
	return out
}

// Softmax converts logits to probabilities.
type Softmax struct{ Label string }

func (s *Softmax) Name() string            { return s.Label }
func (s *Softmax) OutShape(in Shape) Shape { return in }
func (s *Softmax) Params(Shape) int        { return 0 }
func (s *Softmax) FLOPs(in Shape) float64  { return 4 * float64(in.Elems()) }

// Forward computes a numerically stable softmax over all elements.
func (s *Softmax) Forward(in *Tensor) *Tensor {
	out := NewTensor(in.Shape)
	max := math.Inf(-1)
	for _, v := range in.Data {
		if v > max {
			max = v
		}
	}
	sum := 0.0
	for i, v := range in.Data {
		e := math.Exp(v - max)
		out.Data[i] = e
		sum += e
	}
	for i := range out.Data {
		out.Data[i] /= sum
	}
	return out
}

// Dropout is inference-mode identity (kept so graphs match the prototxt).
type Dropout struct{ Label string }

func (d *Dropout) Name() string               { return d.Label }
func (d *Dropout) OutShape(in Shape) Shape    { return in }
func (d *Dropout) Params(Shape) int           { return 0 }
func (d *Dropout) FLOPs(Shape) float64        { return 0 }
func (d *Dropout) Forward(in *Tensor) *Tensor { return in }

// Inception is GoogleNet's module: four parallel branches concatenated
// along channels.
type Inception struct {
	Label    string
	Branches [][]Layer
}

func (m *Inception) Name() string { return m.Label }

// OutShape concatenates branch channels.
func (m *Inception) OutShape(in Shape) Shape {
	var c int
	var hw Shape
	for _, br := range m.Branches {
		s := in
		for _, l := range br {
			s = l.OutShape(s)
		}
		c += s.C
		hw = s
	}
	return Shape{C: c, H: hw.H, W: hw.W}
}

// Params sums branch parameters.
func (m *Inception) Params(in Shape) int {
	total := 0
	for _, br := range m.Branches {
		s := in
		for _, l := range br {
			total += l.Params(s)
			s = l.OutShape(s)
		}
	}
	return total
}

// FLOPs sums branch FLOPs.
func (m *Inception) FLOPs(in Shape) float64 {
	total := 0.0
	for _, br := range m.Branches {
		s := in
		for _, l := range br {
			total += l.FLOPs(s)
			s = l.OutShape(s)
		}
	}
	return total
}

// Forward runs the branches and concatenates.
func (m *Inception) Forward(in *Tensor) *Tensor {
	outs := make([]*Tensor, len(m.Branches))
	for i, br := range m.Branches {
		t := in
		for _, l := range br {
			t = l.Forward(t)
		}
		outs[i] = t
	}
	shape := m.OutShape(in.Shape)
	out := NewTensor(shape)
	cOff := 0
	for _, t := range outs {
		copy(out.Data[cOff*shape.H*shape.W:], t.Data)
		cOff += t.Shape.C
	}
	return out
}

// Network is a sequential stack of layers.
type Network struct {
	Name   string
	Input  Shape
	Layers []Layer
}

// OutShape returns the network's final output shape.
func (n *Network) OutShape() Shape {
	s := n.Input
	for _, l := range n.Layers {
		s = l.OutShape(s)
	}
	return s
}

// TotalFLOPs returns the forward-pass FLOPs for one input.
func (n *Network) TotalFLOPs() float64 {
	s := n.Input
	total := 0.0
	for _, l := range n.Layers {
		total += l.FLOPs(s)
		s = l.OutShape(s)
	}
	return total
}

// TotalParams returns the learned parameter count.
func (n *Network) TotalParams() int {
	s := n.Input
	total := 0
	for _, l := range n.Layers {
		total += l.Params(s)
		s = l.OutShape(s)
	}
	return total
}

// Forward runs one image through the network.
func (n *Network) Forward(in *Tensor) (*Tensor, error) {
	if in.Shape != n.Input {
		return nil, fmt.Errorf("nn: %s expects input %v, got %v", n.Name, n.Input, in.Shape)
	}
	t := in
	for _, l := range n.Layers {
		t = l.Forward(t)
	}
	return t, nil
}

// WeightBytes returns the model size in bytes at 4 bytes/parameter (FP32,
// as Caffe deploys).
func (n *Network) WeightBytes() float64 { return 4 * float64(n.TotalParams()) }
