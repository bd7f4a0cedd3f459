package kernels

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
)

func TestMatMulIdentity(t *testing.T) {
	n := 8
	a := NewMatrix(n, n)
	id := NewMatrix(n, n)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		id.Set(i, i, 1)
		for j := 0; j < n; j++ {
			a.Set(i, j, rng.Float64())
		}
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

func TestMatVecMatchesMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := NewMatrix(5, 7)
	x := make([]float64, 7)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	b := NewMatrix(7, 1)
	copy(b.Data, x)
	viaMul, _ := MatMul(a, b)
	viaVec, err := MatVec(a, x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range viaVec {
		if math.Abs(viaVec[i]-viaMul.Data[i]) > 1e-12 {
			t.Fatal("MatVec disagrees with MatMul")
		}
	}
}

// Property: LU reconstructs the original matrix and solves systems.
func TestLUReconstructProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + int(seed%5+5)%5
		a := NewMatrix(n, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n)) // diagonal dominance: well-conditioned
		}
		lu, err := Factor(a)
		if err != nil {
			return false
		}
		rec := lu.Reconstruct()
		for i := range a.Data {
			if math.Abs(rec.Data[i]-a.Data[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestLUSolveResidual(t *testing.T) {
	n := 64
	rng := rand.New(rand.NewSource(3))
	a := NewMatrix(n, n)
	b := make([]float64, n)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	for i := range b {
		b[i] = rng.NormFloat64()
		a.Set(i, i, a.At(i, i)+10)
	}
	lu, err := Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	x, err := lu.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	if r := Residual(a, x, b); r > 16 {
		t.Fatalf("hpl-scaled residual = %v, want < 16", r)
	}
}

func TestLUSingular(t *testing.T) {
	a := NewMatrix(3, 3) // all zeros
	if _, err := Factor(a); err == nil {
		t.Fatal("expected singularity error")
	}
}

func TestHPLFlopCounts(t *testing.T) {
	if HPLFlops(1000) < 6.6e8 || HPLFlops(1000) > 6.7e8 {
		t.Errorf("HPLFlops(1000) = %v", HPLFlops(1000))
	}
	// Sum of trailing updates + panels approximates the total.
	n, nb := 512, 32
	total := 0.0
	for k := 0; k < n; k += nb {
		total += HPLTrailingFlops(n, k, nb)
	}
	if total > HPLFlops(n) || total < 0.5*HPLFlops(n) {
		t.Errorf("trailing updates sum %v vs total %v", total, HPLFlops(n))
	}
}

func TestJacobiSolvesPoisson(t *testing.T) {
	// -lap(u) = f with u* = sin(pi x) sin(pi y), f = 2 pi^2 u*.
	n := 32
	h := 1.0 / float64(n+1)
	f := NewGrid2D(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			x, y := float64(i+1)*h, float64(j+1)*h
			f.Set(i, j, 2*math.Pi*math.Pi*math.Sin(math.Pi*x)*math.Sin(math.Pi*y))
		}
	}
	u, iters := SolveJacobi(f, h, 1e-8, 20000)
	if iters >= 20000 {
		t.Fatal("Jacobi did not converge")
	}
	worst := 0.0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			x, y := float64(i+1)*h, float64(j+1)*h
			want := math.Sin(math.Pi*x) * math.Sin(math.Pi*y)
			if d := math.Abs(u.At(i, j) - want); d > worst {
				worst = d
			}
		}
	}
	if worst > 5e-3 { // second-order discretization error at n=32
		t.Fatalf("max error vs analytic solution = %v", worst)
	}
}

func TestMultigridBeatsJacobi(t *testing.T) {
	n := 63 // vertex-centered MG wants 2^k - 1 interior points
	h := 1.0 / float64(n+1)
	f := NewGrid2D(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			f.Set(i, j, 1)
		}
	}
	u, cycles := MGSolve(f, h, 1e-6, 60)
	if cycles >= 60 {
		t.Fatalf("multigrid did not converge (res %v)", PoissonResidual(u, f, h))
	}
	if r := PoissonResidual(u, f, h); r > 1e-6 {
		t.Fatalf("multigrid residual %v", r)
	}
	// Jacobi needs orders of magnitude more sweeps for the same target;
	// check it has not converged after the same count of fine-grid sweeps.
	uj := NewGrid2D(n, n)
	vj := NewGrid2D(n, n)
	for s := 0; s < cycles*4; s++ {
		JacobiStep(vj, uj, f, h)
		uj, vj = vj, uj
	}
	if PoissonResidual(uj, f, h) < 1e-6 {
		t.Error("plain Jacobi unexpectedly matched multigrid in the same work")
	}
}

func TestCGHeat2D(t *testing.T) {
	op := &HeatOperator2D{NX: 24, NY: 24, Tau: 0.3}
	n := op.Len()
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	x := make([]float64, n)
	res, err := ConjugateGradient(op, x, b, 1e-10, 500)
	if err != nil {
		t.Fatal(err)
	}
	if res.Residual > 1e-10 {
		t.Fatalf("CG residual = %v after %d iters", res.Residual, res.Iterations)
	}
	// Verify against a direct operator application.
	ax := make([]float64, n)
	op.Apply(ax, x)
	for i := range ax {
		if math.Abs(ax[i]-b[i]) > 1e-7 {
			t.Fatalf("CG solution check failed at %d: %v", i, ax[i]-b[i])
		}
	}
}

func TestCGHeat3D(t *testing.T) {
	op := &HeatOperator3D{NX: 8, NY: 8, NZ: 8, Tau: 0.2}
	n := op.Len()
	b := make([]float64, n)
	x := make([]float64, n)
	for i := range b {
		b[i] = float64(i%7) - 3
	}
	res, err := ConjugateGradient(op, x, b, 1e-9, 400)
	if err != nil {
		t.Fatal(err)
	}
	if res.Residual > 1e-9 {
		t.Fatalf("3D CG residual = %v", res.Residual)
	}
}

func TestCGRandomSPD(t *testing.T) {
	m := RandomSPD(200, 6, 12345)
	n := m.Len()
	b := make([]float64, n)
	for i := range b {
		b[i] = math.Sin(float64(i))
	}
	x := make([]float64, n)
	res, err := ConjugateGradient(m, x, b, 1e-9, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Residual > 1e-9 {
		t.Fatalf("sparse CG residual = %v", res.Residual)
	}
}

func TestCSRSymmetric(t *testing.T) {
	m := RandomSPD(50, 4, 99)
	// Check symmetry by applying to basis-ish vectors.
	x := make([]float64, m.N)
	y := make([]float64, m.N)
	ax := make([]float64, m.N)
	ay := make([]float64, m.N)
	rng := rand.New(rand.NewSource(5))
	for i := range x {
		x[i], y[i] = rng.NormFloat64(), rng.NormFloat64()
	}
	m.Apply(ax, x)
	m.Apply(ay, y)
	if d := Dot(ax, y) - Dot(x, ay); math.Abs(d) > 1e-9 {
		t.Fatalf("matrix not symmetric: <Ax,y>-<x,Ay> = %v", d)
	}
}

func TestFFTRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 << (uint(seed%5+5)%5 + 3) // 8..128
		x := make([]complex128, n)
		orig := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			orig[i] = x[i]
		}
		if FFT(x, false) != nil || FFT(x, true) != nil {
			return false
		}
		for i := range x {
			if math.Abs(real(x[i]-orig[i])) > 1e-9 || math.Abs(imag(x[i]-orig[i])) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestFFTDelta(t *testing.T) {
	n := 16
	x := make([]complex128, n)
	x[0] = 1
	if err := FFT(x, false); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if math.Abs(real(x[i])-1) > 1e-12 || math.Abs(imag(x[i])) > 1e-12 {
			t.Fatalf("delta transform not flat at %d: %v", i, x[i])
		}
	}
	if err := FFT(make([]complex128, 12), false); err == nil {
		t.Fatal("expected power-of-two error")
	}
}

func TestFFT2DRoundTrip(t *testing.T) {
	nx, ny := 16, 32
	data := make([]complex128, nx*ny)
	orig := make([]complex128, nx*ny)
	rng := rand.New(rand.NewSource(8))
	for i := range data {
		data[i] = complex(rng.NormFloat64(), 0)
		orig[i] = data[i]
	}
	if err := FFT2D(data, nx, ny, false); err != nil {
		t.Fatal(err)
	}
	if err := FFT2D(data, nx, ny, true); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if math.Abs(real(data[i]-orig[i])) > 1e-9 {
			t.Fatal("2D round trip failed")
		}
	}
}

func TestBucketSortProperty(t *testing.T) {
	f := func(raw []uint16, b uint8) bool {
		keys := make([]int32, len(raw))
		for i, r := range raw {
			keys[i] = int32(r % 1000)
		}
		before := KeyHistogram(keys)
		out := BucketSort(keys, 1000, int(b%8)+1)
		if len(out) != len(keys) || !IsSorted(out) {
			return false
		}
		after := KeyHistogram(out)
		if len(before) != len(after) {
			return false
		}
		for k, v := range before {
			if after[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestNPBRandomRange(t *testing.T) {
	r := NewNPBRandom(314159265)
	for i := 0; i < 10000; i++ {
		v := r.Next()
		if v <= 0 || v >= 1 {
			t.Fatalf("deviate %v out of (0,1) at step %d", v, i)
		}
	}
	// Determinism.
	a, b := NewNPBRandom(77), NewNPBRandom(77)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("generator not deterministic")
		}
	}
}

func TestEPStatistics(t *testing.T) {
	res := EmbarrassinglyParallel(200000, 314159265)
	var sum int64
	for _, c := range res.Counts {
		sum += c
	}
	if sum != res.Pairs {
		t.Fatalf("annulus counts %d != pairs %d", sum, res.Pairs)
	}
	// Acceptance of the polar method is pi/4.
	accept := float64(res.Pairs) / 200000
	if math.Abs(accept-math.Pi/4) > 0.01 {
		t.Fatalf("acceptance %v, want ~pi/4", accept)
	}
	// Gaussian deviates have near-zero mean.
	if math.Abs(res.SumX/float64(res.Pairs)) > 0.02 {
		t.Errorf("mean X = %v", res.SumX/float64(res.Pairs))
	}
	// Merge is the correct reduction.
	half1 := EmbarrassinglyParallel(1000, 1)
	half2 := EmbarrassinglyParallel(1000, 2)
	merged := half1.Merge(half2)
	if merged.Pairs != half1.Pairs+half2.Pairs {
		t.Error("merge lost pairs")
	}
}

func TestEulerQuiescentStaysQuiescent(t *testing.T) {
	s := NewEulerState(16, 16)
	m0, e0 := s.TotalMass(), s.TotalEnergy()
	for step := 0; step < 5; step++ {
		s.Step(0.01, 1.0/16)
	}
	if math.Abs(s.TotalMass()-m0)/m0 > 1e-12 {
		t.Fatalf("quiescent mass drifted: %v -> %v", m0, s.TotalMass())
	}
	if math.Abs(s.TotalEnergy()-e0)/e0 > 1e-12 {
		t.Fatal("quiescent energy drifted")
	}
	for i := 0; i < 16; i++ {
		for j := 0; j < 16; j++ {
			if math.Abs(s.MomX.At(i, j)) > 1e-12 {
				t.Fatal("quiescent gas started moving")
			}
		}
	}
}

func TestEulerBlastConservesMassInterior(t *testing.T) {
	n := 32
	s := NewEulerState(n, n)
	// Central overpressure region.
	for i := n/2 - 2; i < n/2+2; i++ {
		for j := n/2 - 2; j < n/2+2; j++ {
			s.Energy.Set(i, j, 10/(s.Gamma-1))
		}
	}
	m0 := s.TotalMass()
	h := 1.0 / float64(n)
	tEnd, tAcc := 0.02, 0.0
	for tAcc < tEnd {
		dt := s.Step(0.005, h)
		if dt <= 0 {
			t.Fatal("timestep collapsed")
		}
		tAcc += dt
	}
	// Before the wave reaches the boundary, mass is conserved.
	if math.Abs(s.TotalMass()-m0)/m0 > 1e-6 {
		t.Fatalf("mass drifted %v -> %v", m0, s.TotalMass())
	}
	// The blast must actually move gas.
	moving := false
	for i := 0; i < n && !moving; i++ {
		for j := 0; j < n; j++ {
			if math.Abs(s.MomX.At(i, j)) > 1e-6 {
				moving = true
				break
			}
		}
	}
	if !moving {
		t.Fatal("blast produced no motion")
	}
}

func TestCountHelpersPositive(t *testing.T) {
	if JacobiSweepFlops(100, 100) <= 0 || JacobiSweepBytes(100, 100) <= 0 {
		t.Error("jacobi counts")
	}
	if FFTFlops(1024) <= 0 || FFTFlops(1) != 0 {
		t.Error("fft counts")
	}
	if MGVCycleFlops(256, 2, 2) <= 0 {
		t.Error("mg counts")
	}
	if CGIterationFlops(1000, 10) <= 0 {
		t.Error("cg counts")
	}
	if MatMulFlops(2, 3, 4) != 48 {
		t.Error("matmul flops")
	}
	if HaloBytes2D(128) != 1024 {
		t.Error("halo bytes")
	}
}

// Blocked matmul must match the naive product for awkward shapes and any
// block size.
func TestMatMulBlockedMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	a := NewMatrix(37, 23)
	b := NewMatrix(23, 41)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	want, _ := MatMul(a, b)
	for _, bs := range []int{1, 7, 16, 64, 100} {
		got, err := MatMulBlocked(a, b, bs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Data {
			if math.Abs(got.Data[i]-want.Data[i]) > 1e-9 {
				t.Fatalf("bs=%d: element %d differs", bs, i)
			}
		}
	}
	if _, err := MatMulBlocked(a, NewMatrix(5, 5), 16); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}

func TestGEMMOperationalIntensityGrowsWithBlock(t *testing.T) {
	if GEMMOperationalIntensity(64) <= GEMMOperationalIntensity(8) {
		t.Fatal("bigger tiles must raise OI")
	}
	// The TX1's 256 KB GPU L2 fits ~100x100 tiles; the resulting OI ~ 8
	// explains why hpl cannot reach GEMM's textbook intensity there.
	if oi := GEMMOperationalIntensity(100); oi < 4 || oi > 16 {
		t.Fatalf("OI(100) = %v, want single digits", oi)
	}
}

// Non-positive block sizes are caller bugs (they would silently change
// the modeled operational intensity) and must be rejected, not
// defaulted.
func TestMatMulBlockedRejectsBadBlockSize(t *testing.T) {
	a := NewMatrix(4, 4)
	b := NewMatrix(4, 4)
	cases := []struct {
		bs      int
		wantErr bool
	}{
		{-64, true},
		{-1, true},
		{0, true},
		{1, false},
		{64, false},
	}
	for _, tc := range cases {
		c, err := MatMulBlocked(a, b, tc.bs)
		if tc.wantErr {
			if err == nil {
				t.Errorf("bs=%d: accepted", tc.bs)
			} else if err.Error() != "kernels: block size must be positive" {
				t.Errorf("bs=%d: unexpected error %q", tc.bs, err)
			}
			if c != nil {
				t.Errorf("bs=%d: non-nil result with error", tc.bs)
			}
			continue
		}
		if err != nil {
			t.Errorf("bs=%d: rejected: %v", tc.bs, err)
		}
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

// ger with alpha = -1 must be bitwise the LU trailing update
// row[j] -= x[i]*y[j], including the x[i] == 0 row skip.
func TestGerMatchesManualUpdate(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	const rows, cols, lda = 9, 7, 12
	a := randomSlice(r, rows*lda)
	x := randomSlice(r, rows)
	x[4] = 0 // exercise the skip
	y := randomSlice(r, cols)

	want := append([]float64(nil), a...)
	for i := 0; i < rows; i++ {
		if x[i] == 0 {
			continue
		}
		for j := 0; j < cols; j++ {
			want[i*lda+j] -= x[i] * y[j]
		}
	}
	got := append([]float64(nil), a...)
	ger(-1, x, y, got, lda)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("ger diverged at %d: %v vs %v", i, got[i], want[i])
		}
	}
}

// StreamTriad must tolerate the destination aliasing the scaled operand
// (the CG search-direction update p = r + beta*p).
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
