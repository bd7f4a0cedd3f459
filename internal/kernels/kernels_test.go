package kernels

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

func TestMatMulIdentity(t *testing.T) {
	n := 8
	a := NewMatrix(n, n)
	id := NewMatrix(n, n)
	rng := rand.New(rand.NewSource(1))
	for i := range a.Data {
		a.Data[i] = rng.Float64()
	}
	for i := 0; i < n; i++ {
		id.Data[i*n+i] = 1
	}
	c, err := MatMul(a, id)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Data {
		if math.Abs(c.Data[i]-a.Data[i]) > 1e-12 {
			t.Fatal("A*I != A")
		}
	}
	if _, err := MatMul(a, NewMatrix(n+1, n)); err == nil {
		t.Fatal("expected dimension error")
	}
}

func TestJacobiSolvesPoisson(t *testing.T) {
	// -lap(u) = f with u* = sin(pi x) sin(pi y), f = 2 pi^2 u*.
	n := 32
	h := 1.0 / float64(n+1)
	at := func(i, j int) int { return (i+1)*(n+2) + j + 1 } // interior (i,j)
	f := NewGrid2D(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			x, y := float64(i+1)*h, float64(j+1)*h
			f.Data[at(i, j)] = 2 * math.Pi * math.Pi * math.Sin(math.Pi*x) * math.Sin(math.Pi*y)
		}
	}
	u, v := NewGrid2D(n, n), NewGrid2D(n, n)
	const maxIter = 20000
	iters := 0
	for ; iters < maxIter; iters++ {
		d := JacobiStep(v, u, f, h)
		u, v = v, u
		if d < 1e-8 {
			break
		}
	}
	if iters == maxIter {
		t.Fatal("Jacobi did not converge")
	}
	worst := 0.0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			x, y := float64(i+1)*h, float64(j+1)*h
			want := math.Sin(math.Pi*x) * math.Sin(math.Pi*y)
			if d := math.Abs(u.Data[at(i, j)] - want); d > worst {
				worst = d
			}
		}
	}
	if worst > 5e-3 { // second-order discretization error at n=32
		t.Fatalf("max error vs analytic solution = %v", worst)
	}
}

// Known answers for the count the jacobi model and the host calibration
// share: 6 FLOPs and 24 bytes per interior cell.
func TestCountHelpersPositive(t *testing.T) {
	if got := JacobiSweepFlops(3, 5); got != 90 {
		t.Errorf("JacobiSweepFlops(3, 5) = %v, want 90", got)
	}
	if got := JacobiSweepBytes(3, 5); got != 360 {
		t.Errorf("JacobiSweepBytes(3, 5) = %v, want 360", got)
	}
}

func TestStreamKernels(t *testing.T) {
	n := 4096
	res := RunStream(n, 2)
	if len(res) != 4 {
		t.Fatalf("%d results", len(res))
	}
	names := []string{"Copy", "Scale", "Add", "Triad"}
	for i, r := range res {
		if r.Name != names[i] {
			t.Fatalf("order %v", res)
		}
		if r.BytesPer <= 0 {
			t.Fatalf("%s reported no bandwidth", r.Name)
		}
	}
	// Functional checks.
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	c := make([]float64, 3)
	StreamAdd(a, b, c)
	if c[2] != 9 {
		t.Fatal("add wrong")
	}
	StreamTriad(c, a, b, 2)
	if c[0] != 1+2*4 {
		t.Fatal("triad wrong")
	}
	StreamScale(c, b, 3)
	if c[1] != 15 {
		t.Fatal("scale wrong")
	}
	StreamCopy(a, c)
	if c[2] != 3 {
		t.Fatal("copy wrong")
	}
}

func randomSlice(r *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = r.NormFloat64()
	}
	return out
}

// Fixed-seed determinism: MatMul and Dot must produce identical bytes
// across repeated runs and across GOMAXPROCS values. MatMul's rows are
// owner-computes and Dot sums in index order, so the core count must not
// reach the result.
func TestMatMulDotDeterministicAcrossGOMAXPROCS(t *testing.T) {
	const m, k, n = 150, 130, 140
	r := rand.New(rand.NewSource(5))
	a := &Matrix{Rows: m, Cols: k, Data: randomSlice(r, m*k)}
	b := &Matrix{Rows: k, Cols: n, Data: randomSlice(r, k*n)}
	v := randomSlice(r, 1<<16)
	w := randomSlice(r, 1<<16)
	run := func() []uint64 {
		c, err := MatMul(a, b)
		if err != nil {
			t.Fatal(err)
		}
		bits := make([]uint64, 0, len(c.Data)+1)
		for _, x := range c.Data {
			bits = append(bits, math.Float64bits(x))
		}
		return append(bits, math.Float64bits(Dot(v, w)))
	}
	first := run()
	if again := run(); !slices.Equal(first, again) {
		t.Fatal("same-process rerun changed bytes")
	}
	orig := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(orig)
	for _, procs := range []int{1, 2, 3, orig} {
		runtime.GOMAXPROCS(procs)
		if got := run(); !slices.Equal(first, got) {
			t.Fatalf("GOMAXPROCS=%d changed bytes", procs)
		}
	}
}

// StreamTriad must tolerate the destination aliasing the scaled operand.
func TestTriadAliasing(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	p := randomSlice(r, 257)
	rr := randomSlice(r, 257)
	beta := 0.75
	want := make([]float64, len(p))
	for i := range p {
		want[i] = rr[i] + beta*p[i]
	}
	StreamTriad(p, rr, p, beta)
	for i := range want {
		if math.Float64bits(p[i]) != math.Float64bits(want[i]) {
			t.Fatalf("aliased triad diverged at %d", i)
		}
	}
}
