package nn

import "math"

// Layer is one network stage.
type Layer interface {
	Name() string
	// OutShape returns the output shape for a given input shape.
	OutShape(in Shape) Shape
	// FLOPs returns the floating-point operations for one input of the
	// given shape (multiply and add counted separately).
	FLOPs(in Shape) float64
	// Params returns the learned parameter count.
	Params(in Shape) int
}

// Conv is a 2D convolution with square kernels.
type Conv struct {
	Label       string
	OutC, K     int
	Stride, Pad int
	Groups      int
}

// NewConv builds a convolution layer. groups=2 reproduces AlexNet's split
// convolutions.
func NewConv(label string, outC, k, stride, pad, groups int) *Conv {
	if groups < 1 {
		groups = 1
	}
	return &Conv{Label: label, OutC: outC, K: k, Stride: stride, Pad: pad, Groups: groups}
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

// ReLU is the rectifier activation.
type ReLU struct{ Label string }

func (r *ReLU) Name() string            { return r.Label }
func (r *ReLU) OutShape(in Shape) Shape { return in }
func (r *ReLU) Params(Shape) int        { return 0 }
func (r *ReLU) FLOPs(in Shape) float64  { return float64(in.Elems()) }

// Pool is max or average pooling; both cost the same.
type Pool struct {
	Label  string
	K      int
	Stride int
	Pad    int
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

// LRN is AlexNet/GoogleNet's local response normalization across channels.
type LRN struct {
	Label string
	Size  int
}

func (l *LRN) Name() string            { return l.Label }
func (l *LRN) OutShape(in Shape) Shape { return in }
func (l *LRN) Params(Shape) int        { return 0 }

// FLOPs charges the window sum plus the power/divide per element.
func (l *LRN) FLOPs(in Shape) float64 { return float64(in.Elems()) * float64(l.Size+6) }

// FC is a fully connected layer over the flattened input.
type FC struct {
	Label string
	Out   int
}

// NewFC builds a fully connected layer.
func NewFC(label string, out int) *FC { return &FC{Label: label, Out: out} }

func (f *FC) Name() string            { return f.Label }
func (f *FC) OutShape(in Shape) Shape { return Shape{C: f.Out, H: 1, W: 1} }
func (f *FC) Params(in Shape) int     { return f.Out*in.Elems() + f.Out }
func (f *FC) FLOPs(in Shape) float64  { return 2*float64(f.Out)*float64(in.Elems()) + float64(f.Out) }

// Softmax converts logits to probabilities.
type Softmax struct{ Label string }

func (s *Softmax) Name() string            { return s.Label }
func (s *Softmax) OutShape(in Shape) Shape { return in }
func (s *Softmax) Params(Shape) int        { return 0 }
func (s *Softmax) FLOPs(in Shape) float64  { return 4 * float64(in.Elems()) }

// Dropout is inference-mode identity (kept so graphs match the prototxt).
type Dropout struct{ Label string }

func (d *Dropout) Name() string            { return d.Label }
func (d *Dropout) OutShape(in Shape) Shape { return in }
func (d *Dropout) Params(Shape) int        { return 0 }
func (d *Dropout) FLOPs(Shape) float64     { return 0 }

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

// WeightBytes returns the model size in bytes at 4 bytes/parameter (FP32,
// as Caffe deploys).
func (n *Network) WeightBytes() float64 { return 4 * float64(n.TotalParams()) }
