package kernels

import "errors"

// This file implements the algorithm family behind NPB bt and sp: an
// Alternating-Direction-Implicit (ADI) timestep for the 2D heat equation,
// built on the Thomas tridiagonal solver. Each half-step solves a
// tridiagonal system along one grid direction — the per-line solves that
// make bt/sp exchange faces between ranks each sweep.

// ThomasSolve solves the tridiagonal system with sub-diagonal a (a[0]
// unused), diagonal b, super-diagonal c (c[n-1] unused), and right-hand
// side d, in place, returning the solution in d. The classic O(n)
// forward-elimination / back-substitution; fails on a zero pivot.
func ThomasSolve(a, b, c, d []float64) error {
	n := len(d)
	if len(a) != n || len(b) != n || len(c) != n {
		return errors.New("kernels: tridiagonal arrays must have equal length")
	}
	if n == 0 {
		return nil
	}
	// Forward sweep with scratch copies so the inputs stay intact except d.
	cp := make([]float64, n)
	piv := b[0]
	if piv == 0 {
		return errors.New("kernels: zero pivot in Thomas solve")
	}
	cp[0] = c[0] / piv
	d[0] = d[0] / piv
	for i := 1; i < n; i++ {
		m := b[i] - a[i]*cp[i-1]
		if m == 0 {
			return errors.New("kernels: zero pivot in Thomas solve")
		}
		cp[i] = c[i] / m
		d[i] = (d[i] - a[i]*d[i-1]) / m
	}
	for i := n - 2; i >= 0; i-- {
		d[i] -= cp[i] * d[i+1]
	}
	return nil
}

// ADIHeat2D advances u_t = lap(u) on an nx x ny interior grid (Dirichlet
// zero boundary) by one timestep dt with the Peaceman-Rachford ADI
// scheme: an implicit x-sweep with an explicit y-term, then the reverse.
// Unconditionally stable and second order — the reason bt/sp take far
// larger steps than an explicit code.
func ADIHeat2D(u *Grid2D, dt, h float64) error {
	nx, ny := u.NX, u.NY
	r := dt / (2 * h * h)
	half := NewGrid2D(nx, ny)

	// Half-step 1: implicit in x (solve along columns), explicit in y.
	var solveErr error
	ParallelFor(ny, func(lo, hi int) {
		a := make([]float64, nx)
		b := make([]float64, nx)
		c := make([]float64, nx)
		d := make([]float64, nx)
		for j := lo; j < hi; j++ {
			for i := 0; i < nx; i++ {
				a[i], b[i], c[i] = -r, 1+2*r, -r
				d[i] = u.At(i, j) + r*(u.At(i, j-1)-2*u.At(i, j)+u.At(i, j+1))
			}
			if err := ThomasSolve(a, b, c, d); err != nil {
				solveErr = err
				return
			}
			for i := 0; i < nx; i++ {
				half.Set(i, j, d[i])
			}
		}
	})
	if solveErr != nil {
		return solveErr
	}

	// Half-step 2: implicit in y (solve along rows), explicit in x.
	ParallelFor(nx, func(lo, hi int) {
		a := make([]float64, ny)
		b := make([]float64, ny)
		c := make([]float64, ny)
		d := make([]float64, ny)
		for i := lo; i < hi; i++ {
			for j := 0; j < ny; j++ {
				a[j], b[j], c[j] = -r, 1+2*r, -r
				d[j] = half.At(i, j) + r*(half.At(i-1, j)-2*half.At(i, j)+half.At(i+1, j))
			}
			if err := ThomasSolve(a, b, c, d); err != nil {
				solveErr = err
				return
			}
			for j := 0; j < ny; j++ {
				u.Set(i, j, d[j])
			}
		}
	})
	return solveErr
}

// ADIStepFlops returns the FLOPs of one ADI timestep on an nx x ny grid:
// two sweeps of (rhs assembly ~6 + Thomas ~8) per cell.
func ADIStepFlops(nx, ny int) float64 {
	return 2 * 14 * float64(nx) * float64(ny)
}
