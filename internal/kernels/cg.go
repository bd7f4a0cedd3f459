package kernels

import (
	"errors"
	"math"
)

// Operator is a linear operator y = A(x), the abstraction the CG solver
// needs: tealeaf's implicit heat-conduction matrices and NPB cg's sparse
// matrix both implement it.
type Operator interface {
	Apply(dst, src []float64)
	Len() int
}

// CGResult reports a conjugate-gradient solve.
type CGResult struct {
	Iterations int
	Residual   float64
}

// ConjugateGradient solves A x = b for symmetric positive definite A,
// starting from x (modified in place), until the residual norm falls
// below tol*||b|| or maxIter iterations. This is the solver inside the
// tealeaf heat-conduction benchmarks.
func ConjugateGradient(a Operator, x, b []float64, tol float64, maxIter int) (CGResult, error) {
	n := a.Len()
	if len(x) != n || len(b) != n {
		return CGResult{}, errors.New("kernels: CG dimension mismatch")
	}
	r := make([]float64, n)
	p := make([]float64, n)
	ap := make([]float64, n)
	a.Apply(ap, x)
	for i := range r {
		r[i] = b[i] - ap[i]
		p[i] = r[i]
	}
	bnorm := Norm2(b)
	if bnorm == 0 {
		bnorm = 1
	}
	rr := Dot(r, r)
	for it := 1; it <= maxIter; it++ {
		a.Apply(ap, p)
		pap := Dot(p, ap)
		if pap <= 0 {
			return CGResult{Iterations: it, Residual: math.Sqrt(rr) / bnorm},
				errors.New("kernels: operator not positive definite")
		}
		alpha := rr / pap
		Axpy(alpha, p, x)
		Axpy(-alpha, ap, r)
		rrNew := Dot(r, r)
		if math.Sqrt(rrNew)/bnorm < tol {
			return CGResult{Iterations: it, Residual: math.Sqrt(rrNew) / bnorm}, nil
		}
		beta := rrNew / rr
		// Search-direction update p = r + beta*p: a stream triad with the
		// destination aliasing c.
		StreamTriad(p, r, p, beta)
		rr = rrNew
	}
	return CGResult{Iterations: maxIter, Residual: math.Sqrt(rr) / bnorm}, nil
}

// HeatOperator2D is the implicit operator (I + dt/h^2 * L) of the
// backward-Euler linear heat conduction equation tealeaf2d solves, on an
// nx x ny grid with conduction coefficient folded into tau = dt/h^2.
type HeatOperator2D struct {
	NX, NY int
	Tau    float64
}

// Len returns the vector length nx*ny.
func (h *HeatOperator2D) Len() int { return h.NX * h.NY }

// Apply computes dst = (I + tau*L) src with the 5-point Laplacian and
// homogeneous Dirichlet boundaries, rows in parallel.
func (h *HeatOperator2D) Apply(dst, src []float64) {
	nx, ny, tau := h.NX, h.NY, h.Tau
	at := func(i, j int) float64 {
		if i < 0 || i >= nx || j < 0 || j >= ny {
			return 0
		}
		return src[i*ny+j]
	}
	ParallelFor(nx, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			for j := 0; j < ny; j++ {
				c := src[i*ny+j]
				lap := 4*c - at(i-1, j) - at(i+1, j) - at(i, j-1) - at(i, j+1)
				dst[i*ny+j] = c + tau*lap
			}
		}
	})
}

// HeatOperator3D is the 3D analogue (7-point stencil) used by tealeaf3d.
type HeatOperator3D struct {
	NX, NY, NZ int
	Tau        float64
}

// Len returns nx*ny*nz.
func (h *HeatOperator3D) Len() int { return h.NX * h.NY * h.NZ }

// Apply computes dst = (I + tau*L) src with the 7-point Laplacian.
func (h *HeatOperator3D) Apply(dst, src []float64) {
	nx, ny, nz, tau := h.NX, h.NY, h.NZ, h.Tau
	at := func(i, j, k int) float64 {
		if i < 0 || i >= nx || j < 0 || j >= ny || k < 0 || k >= nz {
			return 0
		}
		return src[(i*ny+j)*nz+k]
	}
	ParallelFor(nx, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			for j := 0; j < ny; j++ {
				for k := 0; k < nz; k++ {
					c := src[(i*ny+j)*nz+k]
					lap := 6*c - at(i-1, j, k) - at(i+1, j, k) -
						at(i, j-1, k) - at(i, j+1, k) - at(i, j, k-1) - at(i, j, k+1)
					dst[(i*ny+j)*nz+k] = c + tau*lap
				}
			}
		}
	})
}

// CSR is a compressed-sparse-row matrix, the structure of NPB cg's
// random sparse SPD matrix.
type CSR struct {
	N      int
	RowPtr []int
	Col    []int
	Val    []float64
}

// Len returns the dimension.
func (m *CSR) Len() int { return m.N }

// Apply computes dst = M src (parallel SpMV).
func (m *CSR) Apply(dst, src []float64) {
	ParallelFor(m.N, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			s := 0.0
			for idx := m.RowPtr[i]; idx < m.RowPtr[i+1]; idx++ {
				s += m.Val[idx] * src[m.Col[idx]]
			}
			dst[i] = s
		}
	})
}

// RandomSPD builds a random sparse symmetric positive-definite CSR matrix
// of order n with about nnzPerRow off-diagonal entries per row, using a
// deterministic LCG (seeded like NPB's pseudo-random generator).
func RandomSPD(n, nnzPerRow int, seed uint64) *CSR {
	type entry struct {
		col int
		val float64
	}
	rows := make([][]entry, n)
	lcg := seed | 1
	next := func() uint64 {
		lcg = lcg*6364136223846793005 + 1442695040888963407
		return lcg
	}
	for i := 0; i < n; i++ {
		seen := map[int]bool{i: true}
		for k := 0; k < nnzPerRow; k++ {
			j := int(next() % uint64(n))
			if seen[j] {
				continue
			}
			seen[j] = true
			v := float64(next()%1000)/1000.0 - 0.5
			rows[i] = append(rows[i], entry{j, v})
			rows[j] = append(rows[j], entry{i, v}) // keep symmetry
		}
	}
	csr := &CSR{N: n, RowPtr: make([]int, n+1)}
	for i := 0; i < n; i++ {
		// Diagonal dominance guarantees SPD.
		diag := 1.0
		for _, e := range rows[i] {
			diag += math.Abs(e.val)
		}
		csr.RowPtr[i+1] = csr.RowPtr[i] + len(rows[i]) + 1
		csr.Col = append(csr.Col, i)
		csr.Val = append(csr.Val, diag)
		for _, e := range rows[i] {
			csr.Col = append(csr.Col, e.col)
			csr.Val = append(csr.Val, e.val)
		}
	}
	return csr
}

// CGIterationFlops returns the FLOPs of one CG iteration on n unknowns
// with an operator costing opFlopsPerRow per row: one operator apply, two
// dots, three axpy-likes.
func CGIterationFlops(n int, opFlopsPerRow float64) float64 {
	fn := float64(n)
	return fn*opFlopsPerRow + 2*2*fn + 3*2*fn
}
