package kernels

import (
	"errors"
	"math"
)

// LU holds an in-place LU factorization with partial pivoting: the strict
// lower triangle stores L (unit diagonal implied), the upper triangle U,
// and Piv the row permutation. This is the factorization at the heart of
// hpl (High Performance Linpack), which solves Ax=b.
type LU struct {
	A   *Matrix
	Piv []int
}

// Factor computes the LU factorization of a copy of a. It fails on
// (numerically) singular matrices.
func Factor(a *Matrix) (*LU, error) {
	if a.Rows != a.Cols {
		return nil, errors.New("kernels: LU needs a square matrix")
	}
	n := a.Rows
	m := a.Clone()
	piv := make([]int, n)
	lcol := make([]float64, n) // scratch: the gathered multiplier column
	for k := 0; k < n; k++ {
		// Partial pivoting: largest magnitude in column k.
		p := k
		max := math.Abs(m.At(k, k))
		for i := k + 1; i < n; i++ {
			if v := math.Abs(m.At(i, k)); v > max {
				max, p = v, i
			}
		}
		if max < 1e-300 {
			return nil, errors.New("kernels: singular matrix in LU")
		}
		piv[k] = p
		if p != k {
			rk := m.Data[k*n : (k+1)*n]
			rp := m.Data[p*n : (p+1)*n]
			for j := range rk {
				rk[j], rp[j] = rp[j], rk[j]
			}
		}
		pivot := m.At(k, k)
		// Panel: scale column k below the diagonal.
		for i := k + 1; i < n; i++ {
			m.Set(i, k, m.At(i, k)/pivot)
		}
		// Trailing update (the DGEMM-shaped bulk hpl offloads to the GPU):
		// the rank-1 update A' -= l ⊗ rowK. alpha = -1 makes ger's
		// += alpha*x[i]*y[j] bitwise row[j] -= l*rowK[j].
		if k+1 < n {
			for i := k + 1; i < n; i++ {
				lcol[i-k-1] = m.At(i, k)
			}
			ger(-1, lcol[:n-k-1], m.Data[k*n+k+1:(k+1)*n],
				m.Data[(k+1)*n+k+1:], n)
		}
	}
	return &LU{A: m, Piv: piv}, nil
}

// ger applies the rank-1 update a[i*lda+j] += alpha*x[i]*y[j] for
// i < len(x), j < len(y), in parallel over rows, where a points at the
// first element of a submatrix with row stride lda. Rows with x[i] == 0
// are skipped.
func ger(alpha float64, x, y, a []float64, lda int) {
	n := len(y)
	ParallelFor(len(x), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if x[i] == 0 {
				continue
			}
			ax := alpha * x[i]
			row := a[i*lda : i*lda+n]
			for j, v := range y {
				row[j] += ax * v
			}
		}
	})
}

// Solve solves Ax=b given the factorization.
func (lu *LU) Solve(b []float64) ([]float64, error) {
	n := lu.A.Rows
	if len(b) != n {
		return nil, errors.New("kernels: rhs length mismatch")
	}
	x := append([]float64(nil), b...)
	// Apply the pivots.
	for k := 0; k < n; k++ {
		if p := lu.Piv[k]; p != k {
			x[k], x[p] = x[p], x[k]
		}
	}
	// Forward substitution with unit L.
	for i := 1; i < n; i++ {
		s := x[i]
		row := lu.A.Data[i*n : i*n+i]
		for j, v := range row {
			s -= v * x[j]
		}
		x[i] = s
	}
	// Back substitution with U.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		row := lu.A.Data[i*n : (i+1)*n]
		for j := i + 1; j < n; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s / row[i]
	}
	return x, nil
}

// Reconstruct returns P^T*L*U, which must equal the original matrix —
// the property test for the factorization.
func (lu *LU) Reconstruct() *Matrix {
	n := lu.A.Rows
	out := NewMatrix(n, n)
	// out = L*U from the packed factors.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			kmax := i
			if j < kmax {
				kmax = j
			}
			for k := 0; k < kmax; k++ {
				s += lu.A.At(i, k) * lu.A.At(k, j)
			}
			if i <= j {
				s += lu.A.At(i, j) // unit diagonal of L times U(i,j)
			} else {
				s += lu.A.At(i, j) * lu.A.At(j, j)
			}
			out.Set(i, j, s)
		}
	}
	// Undo the pivoting (apply swaps in reverse).
	for k := n - 1; k >= 0; k-- {
		if p := lu.Piv[k]; p != k {
			rk := out.Data[k*n : (k+1)*n]
			rp := out.Data[p*n : (p+1)*n]
			for j := range rk {
				rk[j], rp[j] = rp[j], rk[j]
			}
		}
	}
	return out
}

// HPLFlops returns the canonical FLOP count credited to an hpl run of
// order n: 2/3 n^3 + 2 n^2.
func HPLFlops(n int) float64 {
	fn := float64(n)
	return 2.0/3.0*fn*fn*fn + 2*fn*fn
}

// HPLPanelBytes returns the bytes a panel broadcast moves at elimination
// step k with block size nb in an n-order problem (the column panel below
// the diagonal).
func HPLPanelBytes(n, k, nb int) float64 {
	rows := n - k
	if rows < 0 {
		rows = 0
	}
	return float64(rows) * float64(nb) * 8
}

// HPLTrailingFlops returns the FLOPs of the trailing DGEMM update at step
// k with block size nb.
func HPLTrailingFlops(n, k, nb int) float64 {
	rem := float64(n - k - nb)
	if rem < 0 {
		rem = 0
	}
	return 2 * rem * rem * float64(nb)
}

// Residual returns ||Ax-b||_inf / (||A||_inf * ||x||_inf * n * eps), the
// scaled residual hpl reports; below ~16 counts as a pass.
func Residual(a *Matrix, x, b []float64) float64 {
	n := a.Rows
	rmax := 0.0
	anorm := 0.0
	xnorm := 0.0
	for _, v := range x {
		if math.Abs(v) > xnorm {
			xnorm = math.Abs(v)
		}
	}
	for i := 0; i < n; i++ {
		s := -b[i]
		rowSum := 0.0
		row := a.Data[i*n : (i+1)*n]
		for j, v := range row {
			s += v * x[j]
			rowSum += math.Abs(v)
		}
		if math.Abs(s) > rmax {
			rmax = math.Abs(s)
		}
		if rowSum > anorm {
			anorm = rowSum
		}
	}
	den := anorm * xnorm * float64(n) * 2.220446049250313e-16
	if den == 0 {
		return 0
	}
	return rmax / den
}
