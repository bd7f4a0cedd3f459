// Package kernels holds the numeric kernels that run on the host: the
// four calibration kernels perf.MeasureHostKernels times for roofline
// -host (a GEMM, a STREAM triad, a dot product and one Jacobi sweep) and
// the STREAM set netbench -stream runs. No simulated path executes them.
//
// JacobiSweepFlops and JacobiSweepBytes are the one count shared with
// the simulator: the jacobi workload model charges them per sweep, and
// the calibration credits the same count to its timed sweep.
package kernels

import (
	"errors"
	"runtime"
	"sync"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix allocates a zero matrix.
func NewMatrix(rows, cols int) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// parallelFor runs body over [0,n) split into contiguous chunks across
// the available cores — the standard HPC decomposition, which keeps each
// worker streaming through adjacent memory. Chunking depends on
// GOMAXPROCS, so only elementwise or owner-computes work (where each
// index's result is independent of the partition) may rely on it for
// deterministic output.
func parallelFor(n int, body func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		body(0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			body(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// MatMul computes c = a*b in parallel over rows. Dimensions must agree.
func MatMul(a, b *Matrix) (*Matrix, error) {
	if a.Cols != b.Rows {
		return nil, errors.New("kernels: matmul dimension mismatch")
	}
	c := NewMatrix(a.Rows, b.Cols)
	m, k, n := a.Rows, a.Cols, b.Cols
	parallelFor(m, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			arow := a.Data[i*k : (i+1)*k]
			crow := c.Data[i*n : (i+1)*n]
			for kk, av := range arow {
				if av == 0 {
					continue
				}
				brow := b.Data[kk*n : (kk+1)*n]
				for j, bv := range brow {
					crow[j] += av * bv
				}
			}
		}
	})
	return c, nil
}

// Dot returns the inner product of two equal-length vectors, summed
// sequentially in index order.
func Dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
