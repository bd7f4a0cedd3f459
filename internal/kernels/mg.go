package kernels

// Multigrid implements a geometric multigrid V-cycle for the 2D Poisson
// problem -lap(u) = f on the unit square — the algorithm family of NPB mg
// (which runs a 3D V-cycle; this 2D version exercises the same restrict /
// prolongate / smooth structure the workload model charges for).
//
// Grids are vertex-centered with Dirichlet halos: an n-point-per-side
// interior with n = 2^k - 1 coarsens to (n-1)/2 points, and coarse point I
// (0-indexed) coincides with fine point 2I+1.

// MGSolve runs V-cycles until the residual max-norm falls below tol or
// maxCycles pass, returning the solution and the number of cycles used.
// The interior must be (2^k - 1) points per side.
func MGSolve(f *Grid2D, h, tol float64, maxCycles int) (*Grid2D, int) {
	u := NewGrid2D(f.NX, f.NY)
	for c := 1; c <= maxCycles; c++ {
		VCycle(u, f, h, 2, 2)
		if PoissonResidual(u, f, h) < tol {
			return u, c
		}
	}
	return u, maxCycles
}

// VCycle performs one multigrid V-cycle on -lap(u) = f with pre/post
// weighted-Jacobi smoothing sweeps.
func VCycle(u, f *Grid2D, h float64, pre, post int) {
	if u.NX < 7 || u.NY < 7 || u.NX%2 == 0 || u.NY%2 == 0 {
		// Coarsest level: smooth hard instead of a direct solve.
		tmp := NewGrid2D(u.NX, u.NY)
		for s := 0; s < 30; s++ {
			DampedJacobiStep(tmp, u, f, h, 0.8)
			u.Data, tmp.Data = tmp.Data, u.Data
		}
		return
	}
	tmp := NewGrid2D(u.NX, u.NY)
	for s := 0; s < pre; s++ {
		DampedJacobiStep(tmp, u, f, h, 0.8)
		u.Data, tmp.Data = tmp.Data, u.Data
	}
	r := residualGrid(u, f, h)
	rc := Restrict(r)
	ec := NewGrid2D(rc.NX, rc.NY)
	VCycle(ec, rc, 2*h, pre, post)
	e := Prolongate(ec, u.NX, u.NY)
	for i := 0; i < u.NX; i++ {
		for j := 0; j < u.NY; j++ {
			u.Set(i, j, u.At(i, j)+e.At(i, j))
		}
	}
	for s := 0; s < post; s++ {
		DampedJacobiStep(tmp, u, f, h, 0.8)
		u.Data, tmp.Data = tmp.Data, u.Data
	}
}

// residualGrid returns r = f + lap(u) on the interior.
func residualGrid(u, f *Grid2D, h float64) *Grid2D {
	r := NewGrid2D(u.NX, u.NY)
	stride := u.NY + 2
	ParallelFor(u.NX, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := (i + 1) * stride
			for j := 1; j <= u.NY; j++ {
				lap := (u.Data[row-stride+j] + u.Data[row+stride+j] +
					u.Data[row+j-1] + u.Data[row+j+1] - 4*u.Data[row+j]) / (h * h)
				r.Data[row+j] = f.Data[row+j] + lap
			}
		}
	})
	return r
}

// Restrict coarsens a fine grid to ((nx-1)/2, (ny-1)/2) by full weighting:
// the 9-point [1 2 1; 2 4 2; 1 2 1]/16 stencil centered on the coincident
// fine point. Dirichlet halos contribute zeros at the boundary.
func Restrict(fine *Grid2D) *Grid2D {
	cx, cy := (fine.NX-1)/2, (fine.NY-1)/2
	coarse := NewGrid2D(cx, cy)
	for i := 0; i < cx; i++ {
		fi := 2*i + 1
		for j := 0; j < cy; j++ {
			fj := 2*j + 1
			s := 4*fine.At(fi, fj) +
				2*(fine.At(fi-1, fj)+fine.At(fi+1, fj)+fine.At(fi, fj-1)+fine.At(fi, fj+1)) +
				fine.At(fi-1, fj-1) + fine.At(fi-1, fj+1) + fine.At(fi+1, fj-1) + fine.At(fi+1, fj+1)
			coarse.Set(i, j, s/16)
		}
	}
	return coarse
}

// Prolongate interpolates a coarse grid bilinearly up to an (nx, ny)
// interior; coincident points copy, edge points average two coarse
// neighbours, cell-center points average four. Halo zeros supply the
// Dirichlet boundary.
func Prolongate(coarse *Grid2D, nx, ny int) *Grid2D {
	fine := NewGrid2D(nx, ny)
	c := coarse.At // handles halo reads at -1 and NX/NY transparently
	for i := 0; i < nx; i++ {
		for j := 0; j < ny; j++ {
			iOdd, jOdd := i%2 == 1, j%2 == 1
			var v float64
			switch {
			case iOdd && jOdd:
				v = c((i-1)/2, (j-1)/2)
			case !iOdd && jOdd:
				v = 0.5 * (c(i/2-1, (j-1)/2) + c(i/2, (j-1)/2))
			case iOdd && !jOdd:
				v = 0.5 * (c((i-1)/2, j/2-1) + c((i-1)/2, j/2))
			default:
				v = 0.25 * (c(i/2-1, j/2-1) + c(i/2-1, j/2) + c(i/2, j/2-1) + c(i/2, j/2))
			}
			fine.Set(i, j, v)
		}
	}
	return fine
}

// MGVCycleFlops estimates the FLOPs of one V-cycle on an n x n grid:
// the geometric series over levels of smoothing + residual + transfer
// work (~(pre+post)*6 + 8 FLOPs per cell per level, levels summing to
// 4/3 of the fine grid).
func MGVCycleFlops(n, pre, post int) float64 {
	perCell := float64((pre+post)*JacobiFlopsPerCell + 8)
	cells := float64(n) * float64(n)
	return perCell * cells * 4 / 3
}
