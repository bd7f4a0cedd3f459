package nn

import "testing"

func TestConvOutShape(t *testing.T) {
	// 1-channel 4x4 input, 1 output channel, k=3 s=1 p=1 -> 4x4 out.
	c := NewConv("c", 1, 3, 1, 1, 1)
	if got := c.OutShape(Shape{C: 1, H: 4, W: 4}); got != (Shape{C: 1, H: 4, W: 4}) {
		t.Fatalf("shape %v", got)
	}
}

func TestConvGroupsHalveMACs(t *testing.T) {
	in := Shape{C: 64, H: 16, W: 16}
	g1 := NewConv("g1", 128, 3, 1, 1, 1)
	g2 := NewConv("g2", 128, 3, 1, 1, 2)
	if g2.FLOPs(in) >= g1.FLOPs(in) {
		t.Fatal("grouped conv should cost less")
	}
	ratio := g1.FLOPs(in) / g2.FLOPs(in)
	if ratio < 1.9 || ratio > 2.1 {
		t.Fatalf("groups=2 FLOP ratio %v, want ~2", ratio)
	}
}

func TestMaxPool(t *testing.T) {
	p := &Pool{Label: "p", K: 2, Stride: 2}
	if got := p.OutShape(Shape{C: 1, H: 4, W: 4}); got.H != 2 || got.W != 2 {
		t.Fatalf("pool shape %v", got)
	}
}

func TestGlobalAveragePool(t *testing.T) {
	p := &Pool{Label: "g", Global: true, K: 3}
	if got := p.OutShape(Shape{C: 2, H: 3, W: 3}); got != (Shape{C: 2, H: 1, W: 1}) {
		t.Fatalf("shape %v", got)
	}
}

// The AlexNet parameter count is the one published for Caffe's
// bvlc_alexnet.
func TestAlexNetArchitecture(t *testing.T) {
	net := AlexNet()
	if got := net.OutShape(); got != (Shape{C: 1000, H: 1, W: 1}) {
		t.Fatalf("alexnet output %v", got)
	}
	if params := net.TotalParams(); params != 60965224 {
		t.Fatalf("alexnet params = %d, want 60965224", params)
	}
	if fl := net.TotalFLOPs(); fl != 1456484616 {
		t.Fatalf("alexnet FLOPs = %.0f, want 1456484616", fl)
	}
}

func TestGoogleNetArchitecture(t *testing.T) {
	net := GoogleNet()
	if got := net.OutShape(); got != (Shape{C: 1000, H: 1, W: 1}) {
		t.Fatalf("googlenet output %v", got)
	}
	params := net.TotalParams()
	if params != 6998552 {
		t.Fatalf("googlenet params = %d, want 6998552", params)
	}
	fl := net.TotalFLOPs()
	if fl != 3193439464 {
		t.Fatalf("googlenet FLOPs = %.0f, want 3193439464", fl)
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

func TestInceptionConcat(t *testing.T) {
	m := inception("i", 4, 2, 6, 2, 3, 5)
	want := Shape{C: 4 + 6 + 3 + 5, H: 6, W: 6}
	if got := m.OutShape(Shape{C: 8, H: 6, W: 6}); got != want {
		t.Fatalf("inception out %v, want %v", got, want)
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
