// Package kernels implements the numerical algorithms behind the paper's
// benchmarks (Table I and the NPB suite) as real, tested, parallel Go
// code: dense LU (hpl), Jacobi relaxation (jacobi), conjugate gradients on
// heat-equation operators (tealeaf, cg), an explicit compressible-Euler
// step (cloverleaf), FFTs (ft), bucket sort (is), multigrid (mg), and the
// embarrassingly-parallel Marsaglia generator (ep).
//
// The workload models in internal/workloads derive their FLOP, byte, and
// message counts from the Count functions here, so the simulated cluster
// executes the same arithmetic shapes these kernels are verified to have.
package kernels

import (
	"errors"
	"math"
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

// At returns m[i,j].
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns m[i,j].
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// ParallelFor runs body over [0,n) split into contiguous chunks across
// the available cores — the standard HPC decomposition, which keeps each
// worker streaming through adjacent memory. Chunking depends on
// GOMAXPROCS, so only elementwise or owner-computes work (where each
// index's result is independent of the partition) may rely on it for
// deterministic output. Exported for the other numeric packages
// (internal/nn) to share.
func ParallelFor(n int, body func(lo, hi int)) {
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
	ParallelFor(m, func(lo, hi int) {
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

// MatVec computes y = a*x.
func MatVec(a *Matrix, x []float64) ([]float64, error) {
	if a.Cols != len(x) {
		return nil, errors.New("kernels: matvec dimension mismatch")
	}
	y := make([]float64, a.Rows)
	Gemv(y, a.Data, x, a.Rows, a.Cols)
	return y, nil
}

// Gemv accumulates y += a*x in parallel over rows, for a row-major
// (m x n) a. Each row's sum starts from y[i] and adds the products in
// column order, so a caller that preloads y with biases (the nn FC
// layer) gets bias-first accumulation.
func Gemv(y, a, x []float64, m, n int) {
	ParallelFor(m, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := a[i*n : (i+1)*n]
			s := y[i]
			for j, v := range row {
				s += v * x[j]
			}
			y[i] = s
		}
	})
}

// MatMulFlops returns the FLOPs of an (m x k) * (k x n) product.
func MatMulFlops(m, k, n int) float64 { return 2 * float64(m) * float64(k) * float64(n) }

// Dot returns the inner product of two equal-length vectors, summed
// sequentially in index order.
func Dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Axpy computes y += alpha*x in place.
func Axpy(alpha float64, x, y []float64) {
	for i := range y {
		y[i] += alpha * x[i]
	}
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}
