package nn

import (
	"math"
	"testing"
	"testing/quick"
)

func TestConvShapeAndDirectValue(t *testing.T) {
	// 1-channel 4x4 input, 1 output channel, k=3 s=1 p=1 -> 4x4 out.
	c := NewConv("c", 1, 3, 1, 1, 1, 5)
	in := NewTensor(Shape{C: 1, H: 4, W: 4})
	for i := range in.Data {
		in.Data[i] = float64(i)
	}
	out := c.Forward(in)
	if out.Shape != (Shape{C: 1, H: 4, W: 4}) {
		t.Fatalf("shape %v", out.Shape)
	}
	// Check one interior value against a direct computation.
	want := c.bias[0]
	for kh := 0; kh < 3; kh++ {
		for kw := 0; kw < 3; kw++ {
			want += c.weights[kh*3+kw] * in.At(0, 1+kh-1, 1+kw-1)
		}
	}
	if math.Abs(out.At(0, 1, 1)-want) > 1e-12 {
		t.Fatalf("conv value %v, want %v", out.At(0, 1, 1), want)
	}
}

func TestConvGroupsHalveMACs(t *testing.T) {
	in := Shape{C: 64, H: 16, W: 16}
	g1 := NewConv("g1", 128, 3, 1, 1, 1, 1)
	g2 := NewConv("g2", 128, 3, 1, 1, 2, 1)
	if g2.FLOPs(in) >= g1.FLOPs(in) {
		t.Fatal("grouped conv should cost less")
	}
	ratio := g1.FLOPs(in) / g2.FLOPs(in)
	if ratio < 1.9 || ratio > 2.1 {
		t.Fatalf("groups=2 FLOP ratio %v, want ~2", ratio)
	}
}

func TestReLU(t *testing.T) {
	r := &ReLU{"r"}
	in := NewTensor(Shape{C: 1, H: 1, W: 4})
	copy(in.Data, []float64{-1, 0, 2, -3})
	out := r.Forward(in)
	want := []float64{0, 0, 2, 0}
	for i := range want {
		if out.Data[i] != want[i] {
			t.Fatalf("relu %v", out.Data)
		}
	}
}

func TestMaxPool(t *testing.T) {
	p := &Pool{Label: "p", K: 2, Stride: 2}
	in := NewTensor(Shape{C: 1, H: 4, W: 4})
	for i := range in.Data {
		in.Data[i] = float64(i)
	}
	out := p.Forward(in)
	if out.Shape.H != 2 || out.Shape.W != 2 {
		t.Fatalf("pool shape %v", out.Shape)
	}
	if out.At(0, 0, 0) != 5 || out.At(0, 1, 1) != 15 {
		t.Fatalf("pool values %v", out.Data)
	}
}

func TestGlobalAveragePool(t *testing.T) {
	p := &Pool{Label: "g", Global: true, Average: true, K: 3}
	in := NewTensor(Shape{C: 2, H: 3, W: 3})
	for i := 0; i < 9; i++ {
		in.Data[i] = 2            // channel 0
		in.Data[9+i] = float64(i) // channel 1: mean 4
	}
	out := p.Forward(in)
	if out.Shape != (Shape{C: 2, H: 1, W: 1}) {
		t.Fatalf("shape %v", out.Shape)
	}
	if math.Abs(out.Data[0]-2) > 1e-12 || math.Abs(out.Data[1]-4) > 1e-12 {
		t.Fatalf("global avg %v", out.Data)
	}
}

func TestSoftmaxProbabilities(t *testing.T) {
	s := &Softmax{"s"}
	f := func(raw [6]int8) bool {
		in := NewTensor(Shape{C: 6, H: 1, W: 1})
		for i, v := range raw {
			in.Data[i] = float64(v) / 16
		}
		out := s.Forward(in)
		sum := 0.0
		for _, v := range out.Data {
			if v < 0 || v > 1 {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFCMatchesManual(t *testing.T) {
	fc := NewFC("f", 3, 9)
	in := NewTensor(Shape{C: 4, H: 1, W: 1})
	copy(in.Data, []float64{1, 2, 3, 4})
	out := fc.Forward(in)
	for o := 0; o < 3; o++ {
		want := fc.bias[o]
		for i, v := range in.Data {
			want += fc.weights[o*4+i] * v
		}
		if math.Abs(out.Data[o]-want) > 1e-12 {
			t.Fatalf("fc output %d: %v want %v", o, out.Data[o], want)
		}
	}
}

func TestAlexNetArchitecture(t *testing.T) {
	net := AlexNet()
	if got := net.OutShape(); got != (Shape{C: 1000, H: 1, W: 1}) {
		t.Fatalf("alexnet output %v", got)
	}
	params := net.TotalParams()
	if params < 58e6 || params > 64e6 {
		t.Fatalf("alexnet params = %d, want ~61M", params)
	}
	fl := net.TotalFLOPs()
	if fl < 1.2e9 || fl > 1.8e9 {
		t.Fatalf("alexnet FLOPs = %g, want ~1.45G", fl)
	}
}

func TestGoogleNetArchitecture(t *testing.T) {
	net := GoogleNet()
	if got := net.OutShape(); got != (Shape{C: 1000, H: 1, W: 1}) {
		t.Fatalf("googlenet output %v", got)
	}
	params := net.TotalParams()
	if params < 5.5e6 || params > 8e6 {
		t.Fatalf("googlenet params = %d, want ~7M", params)
	}
	fl := net.TotalFLOPs()
	if fl < 2.5e9 || fl > 4e9 {
		t.Fatalf("googlenet FLOPs = %g, want ~3.2G", fl)
	}
	// GoogleNet: more FLOPs than AlexNet but far fewer parameters — the
	// property that shapes their different cluster behaviour.
	alex := AlexNet()
	if fl <= alex.TotalFLOPs() {
		t.Error("googlenet should out-FLOP alexnet")
	}
	if params >= alex.TotalParams() {
		t.Error("googlenet should have far fewer parameters")
	}
}

func TestAlexNetForwardRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full forward pass is slow")
	}
	net := AlexNet()
	in := NewTensor(net.Input)
	g := lcg(99)
	for i := range in.Data {
		in.Data[i] = g.next()
	}
	out, err := net.Forward(in)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, v := range out.Data {
		if v < 0 || math.IsNaN(v) {
			t.Fatal("invalid probability")
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("probabilities sum to %v", sum)
	}
}

func TestInceptionConcat(t *testing.T) {
	m := inception("i", 4, 2, 6, 2, 3, 5, 1)
	in := NewTensor(Shape{C: 8, H: 6, W: 6})
	for i := range in.Data {
		in.Data[i] = float64(i%13) / 13
	}
	out := m.Forward(in)
	want := Shape{C: 4 + 6 + 3 + 5, H: 6, W: 6}
	if out.Shape != want {
		t.Fatalf("inception out %v, want %v", out.Shape, want)
	}
	if m.OutShape(in.Shape) != want {
		t.Fatal("OutShape disagrees with Forward")
	}
}

func TestDCTRoundTripProperty(t *testing.T) {
	f := func(raw [64]int8) bool {
		var block, coef, back [64]float64
		for i, v := range raw {
			block[i] = float64(v)
		}
		DCT8x8(&block, &coef)
		IDCT8x8(&coef, &back)
		for i := range block {
			if math.Abs(block[i]-back[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestJPEGDecodeCostScales(t *testing.T) {
	i1, f1, b1 := JPEGDecodeCost(256, 256)
	i2, f2, b2 := JPEGDecodeCost(512, 512)
	if i2 != 4*i1 || f2 != 4*f1 || b2 != 4*b1 {
		t.Fatal("decode cost must scale with pixels")
	}
	if b1 >= i1 || f1 <= 0 {
		t.Fatal("cost proportions nonsensical")
	}
}
