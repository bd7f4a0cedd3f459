package kernels

// 3D geometric multigrid for -lap(u) = f on the unit cube — the actual
// dimensionality of NPB mg (the 2D V-cycle in mg.go exists for the
// jacobi-family tests). Vertex-centered grids with Dirichlet halos,
// interiors of (2^k - 1) points per side.

// Grid3D is a dense 3D field with one-cell halos, (n+2)^3 points.
type Grid3D struct {
	NX, NY, NZ int
	Data       []float64
}

// NewGrid3D allocates an nx x ny x nz interior.
func NewGrid3D(nx, ny, nz int) *Grid3D {
	return &Grid3D{NX: nx, NY: ny, NZ: nz, Data: make([]float64, (nx+2)*(ny+2)*(nz+2))}
}

func (g *Grid3D) idx(i, j, k int) int {
	return ((i+1)*(g.NY+2)+(j+1))*(g.NZ+2) + (k + 1)
}

// At reads interior/halo point (i,j,k); -1 and N reach the halo.
func (g *Grid3D) At(i, j, k int) float64 { return g.Data[g.idx(i, j, k)] }

// Set writes point (i,j,k).
func (g *Grid3D) Set(i, j, k int, v float64) { g.Data[g.idx(i, j, k)] = v }

// DampedJacobi3D performs one weighted-Jacobi sweep for the 7-point
// Laplacian: dst = (1-w)src + w*jacobi(src).
func DampedJacobi3D(dst, src, f *Grid3D, h, omega float64) {
	nx, ny, nz := src.NX, src.NY, src.NZ
	ParallelFor(nx, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			for j := 0; j < ny; j++ {
				for k := 0; k < nz; k++ {
					v := (src.At(i-1, j, k) + src.At(i+1, j, k) +
						src.At(i, j-1, k) + src.At(i, j+1, k) +
						src.At(i, j, k-1) + src.At(i, j, k+1) +
						h*h*f.At(i, j, k)) / 6
					dst.Set(i, j, k, (1-omega)*src.At(i, j, k)+omega*v)
				}
			}
		}
	})
}

// Residual3D returns ||f + lap(u)||_inf on the interior.
func Residual3D(u, f *Grid3D, h float64) float64 {
	max := 0.0
	for i := 0; i < u.NX; i++ {
		for j := 0; j < u.NY; j++ {
			for k := 0; k < u.NZ; k++ {
				lap := (u.At(i-1, j, k) + u.At(i+1, j, k) +
					u.At(i, j-1, k) + u.At(i, j+1, k) +
					u.At(i, j, k-1) + u.At(i, j, k+1) - 6*u.At(i, j, k)) / (h * h)
				r := f.At(i, j, k) + lap
				if r < 0 {
					r = -r
				}
				if r > max {
					max = r
				}
			}
		}
	}
	return max
}

// residual3D computes r = f + lap(u).
func residual3D(u, f *Grid3D, h float64) *Grid3D {
	r := NewGrid3D(u.NX, u.NY, u.NZ)
	ParallelFor(u.NX, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			for j := 0; j < u.NY; j++ {
				for k := 0; k < u.NZ; k++ {
					lap := (u.At(i-1, j, k) + u.At(i+1, j, k) +
						u.At(i, j-1, k) + u.At(i, j+1, k) +
						u.At(i, j, k-1) + u.At(i, j, k+1) - 6*u.At(i, j, k)) / (h * h)
					r.Set(i, j, k, f.At(i, j, k)+lap)
				}
			}
		}
	})
	return r
}

// Restrict3D coarsens by straight injection at the coincident points
// (coarse (I,J,K) = fine (2I+1, 2J+1, 2K+1)) averaged with the six face
// neighbours — a light full weighting that keeps the operator cheap, as
// NPB mg's restriction does.
func Restrict3D(fine *Grid3D) *Grid3D {
	cx, cy, cz := (fine.NX-1)/2, (fine.NY-1)/2, (fine.NZ-1)/2
	coarse := NewGrid3D(cx, cy, cz)
	for i := 0; i < cx; i++ {
		fi := 2*i + 1
		for j := 0; j < cy; j++ {
			fj := 2*j + 1
			for k := 0; k < cz; k++ {
				fk := 2*k + 1
				s := 6*fine.At(fi, fj, fk) +
					fine.At(fi-1, fj, fk) + fine.At(fi+1, fj, fk) +
					fine.At(fi, fj-1, fk) + fine.At(fi, fj+1, fk) +
					fine.At(fi, fj, fk-1) + fine.At(fi, fj, fk+1)
				coarse.Set(i, j, k, s/12)
			}
		}
	}
	return coarse
}

// Prolongate3D interpolates trilinearly up to an (nx,ny,nz) interior.
func Prolongate3D(coarse *Grid3D, nx, ny, nz int) *Grid3D {
	fine := NewGrid3D(nx, ny, nz)
	// Each fine point interpolates from the 1, 2, 4, or 8 nearest coarse
	// points depending on the parity of its coordinates.
	cAt := func(i, j, k int) float64 { return coarse.At(i, j, k) }
	for i := 0; i < nx; i++ {
		for j := 0; j < ny; j++ {
			for k := 0; k < nz; k++ {
				var sum float64
				var cnt int
				iLo, iHi := neighborRange(i)
				jLo, jHi := neighborRange(j)
				kLo, kHi := neighborRange(k)
				for ci := iLo; ci <= iHi; ci++ {
					for cj := jLo; cj <= jHi; cj++ {
						for ck := kLo; ck <= kHi; ck++ {
							sum += cAt(ci, cj, ck)
							cnt++
						}
					}
				}
				fine.Set(i, j, k, sum/float64(cnt))
			}
		}
	}
	return fine
}

// neighborRange returns the coarse indices a fine coordinate interpolates
// between: odd coordinates coincide with one coarse point, even ones sit
// between two (halo zeros supply the boundary).
func neighborRange(i int) (int, int) {
	if i%2 == 1 {
		c := (i - 1) / 2
		return c, c
	}
	return i/2 - 1, i / 2
}

// VCycle3D performs one 3D V-cycle with pre/post damped-Jacobi smoothing.
func VCycle3D(u, f *Grid3D, h float64, pre, post int) {
	if u.NX < 7 || u.NX%2 == 0 {
		tmp := NewGrid3D(u.NX, u.NY, u.NZ)
		for s := 0; s < 30; s++ {
			DampedJacobi3D(tmp, u, f, h, 0.85)
			u.Data, tmp.Data = tmp.Data, u.Data
		}
		return
	}
	tmp := NewGrid3D(u.NX, u.NY, u.NZ)
	for s := 0; s < pre; s++ {
		DampedJacobi3D(tmp, u, f, h, 0.85)
		u.Data, tmp.Data = tmp.Data, u.Data
	}
	rc := Restrict3D(residual3D(u, f, h))
	ec := NewGrid3D(rc.NX, rc.NY, rc.NZ)
	VCycle3D(ec, rc, 2*h, pre, post)
	e := Prolongate3D(ec, u.NX, u.NY, u.NZ)
	for i := 0; i < u.NX; i++ {
		for j := 0; j < u.NY; j++ {
			for k := 0; k < u.NZ; k++ {
				u.Set(i, j, k, u.At(i, j, k)+e.At(i, j, k))
			}
		}
	}
	for s := 0; s < post; s++ {
		DampedJacobi3D(tmp, u, f, h, 0.85)
		u.Data, tmp.Data = tmp.Data, u.Data
	}
}

// MGSolve3D runs V-cycles to tolerance; the interior must be 2^k - 1 per
// side.
func MGSolve3D(f *Grid3D, h, tol float64, maxCycles int) (*Grid3D, int) {
	u := NewGrid3D(f.NX, f.NY, f.NZ)
	for c := 1; c <= maxCycles; c++ {
		VCycle3D(u, f, h, 2, 2)
		if Residual3D(u, f, h) < tol {
			return u, c
		}
	}
	return u, maxCycles
}
