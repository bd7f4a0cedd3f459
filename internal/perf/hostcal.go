package perf

import (
	"math/rand"
	"time"

	"clustersoc/internal/kernels"
)

// HostKernel is one calibration kernel timed on the host machine. The
// simulator's rooflines are analytic; these measurements anchor them —
// the same kernels the timing models count FLOPs for, actually executed,
// so a model/host discrepancy is visible as a rate gap rather than hidden
// inside a constant.
type HostKernel struct {
	Name    string  // gemm, triad, dot, jacobi
	Flops   float64 // floating-point operations per run
	Bytes   float64 // bytes the streaming model charges per run
	Seconds float64 // best-of-trials wall time for one run
}

// FlopRate returns the measured FLOP/s.
func (h HostKernel) FlopRate() float64 {
	if h.Seconds <= 0 {
		return 0
	}
	return h.Flops / h.Seconds
}

// OI returns the kernel's operational intensity in FLOP/B under the same
// streaming-traffic model the simulator uses.
func (h HostKernel) OI() float64 {
	if h.Bytes == 0 {
		return 0
	}
	return h.Flops / h.Bytes
}

// MeasureHostKernels times the four calibration kernels of
// internal/kernels on the host and returns one entry per kernel: an
// n x n x n GEMM, a STREAM triad and a dot product over n*n elements,
// and one 5-point Jacobi sweep of an n x n grid. Each kernel keeps the
// best of trials runs (trials < 1 is treated as 1). Inputs are
// deterministic, so two calls differ only in the measured wall time.
func MeasureHostKernels(n, trials int) []HostKernel {
	if trials < 1 {
		trials = 1
	}
	r := rand.New(rand.NewSource(1))
	fill := func(m int) []float64 {
		v := make([]float64, m)
		for i := range v {
			v[i] = r.Float64() + 0.5
		}
		return v
	}
	best := func(run func()) float64 {
		bestS := 0.0
		for t := 0; t < trials; t++ {
			start := time.Now()
			run()
			if s := time.Since(start).Seconds(); t == 0 || s < bestS {
				bestS = s
			}
		}
		return bestS
	}

	m := n * n
	am := &kernels.Matrix{Rows: n, Cols: n, Data: fill(m)}
	bm := &kernels.Matrix{Rows: n, Cols: n, Data: fill(m)}
	va, vb, vc := fill(m), fill(m), fill(m)
	halo := (n + 2) * (n + 2) // Jacobi grids carry a one-cell halo
	grid := kernels.NewGrid2D(n, n)
	src := &kernels.Grid2D{NX: n, NY: n, Data: fill(halo)}
	f := &kernels.Grid2D{NX: n, NY: n, Data: fill(halo)}
	fn, fm := float64(n), float64(m)

	return []HostKernel{
		{
			Name:  "gemm",
			Flops: 2 * fn * fn * fn,
			Bytes: 3 * 8 * fm, // stream A and B, write C
			Seconds: best(func() {
				_, _ = kernels.MatMul(am, bm) // square operands always agree
			}),
		},
		{
			Name:    "triad",
			Flops:   2 * fm,
			Bytes:   3 * 8 * fm, // read b and c, write a
			Seconds: best(func() { kernels.StreamTriad(va, vb, vc, 3.0) }),
		},
		{
			Name:    "dot",
			Flops:   2 * fm,
			Bytes:   2 * 8 * fm,
			Seconds: best(func() { _ = kernels.Dot(vb, vc) }),
		},
		{
			Name:    "jacobi",
			Flops:   kernels.JacobiSweepFlops(n, n), // the jacobi model's count
			Bytes:   kernels.JacobiSweepBytes(n, n),
			Seconds: best(func() { _ = kernels.JacobiStep(grid, src, f, 1.0/fn) }),
		},
	}
}
