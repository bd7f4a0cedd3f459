package kernels

import "math"

// Grid2D is a dense 2D scalar field with a one-cell halo on each side,
// stored row-major on (nx+2) x (ny+2) points. It is the data structure of
// the jacobi and tealeaf2d workloads.
type Grid2D struct {
	NX, NY int
	Data   []float64
}

// NewGrid2D allocates a grid of nx x ny interior points.
func NewGrid2D(nx, ny int) *Grid2D {
	return &Grid2D{NX: nx, NY: ny, Data: make([]float64, (nx+2)*(ny+2))}
}

// At returns the value at interior coordinates (i,j) in [0,nx) x [0,ny).
func (g *Grid2D) At(i, j int) float64 { return g.Data[(i+1)*(g.NY+2)+(j+1)] }

// Set assigns the interior point (i,j).
func (g *Grid2D) Set(i, j int, v float64) { g.Data[(i+1)*(g.NY+2)+(j+1)] = v }

// JacobiStep performs one weighted-Jacobi sweep for the Poisson problem
// -lap(u) = f on the unit square (5-point stencil, Dirichlet halo),
// writing into dst and returning the max-norm change. Rows are processed
// in parallel; the per-row max distances are reduced in row order.
func JacobiStep(dst, src, f *Grid2D, h float64) float64 {
	nx, ny := src.NX, src.NY
	stride := ny + 2
	diffs := make([]float64, nx)
	ParallelFor(nx, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := (i + 1) * stride
			maxd := 0.0
			for j := 1; j <= ny; j++ {
				v := 0.25 * (src.Data[row-stride+j] + src.Data[row+stride+j] +
					src.Data[row+j-1] + src.Data[row+j+1] + h*h*f.Data[row+j])
				d := math.Abs(v - src.Data[row+j])
				if d > maxd {
					maxd = d
				}
				dst.Data[row+j] = v
			}
			diffs[i] = maxd
		}
	})
	maxd := 0.0
	for _, d := range diffs {
		if d > maxd {
			maxd = d
		}
	}
	return maxd
}

// DampedJacobiStep performs one weighted-Jacobi sweep with damping factor
// omega: dst = (1-omega)*src + omega*jacobi(src). Multigrid uses omega =
// 4/5, which makes Jacobi an effective high-frequency smoother (plain
// omega = 1 barely damps the highest mode).
func DampedJacobiStep(dst, src, f *Grid2D, h, omega float64) {
	nx, ny := src.NX, src.NY
	stride := ny + 2
	ParallelFor(nx, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := (i + 1) * stride
			for j := 1; j <= ny; j++ {
				v := 0.25 * (src.Data[row-stride+j] + src.Data[row+stride+j] +
					src.Data[row+j-1] + src.Data[row+j+1] + h*h*f.Data[row+j])
				dst.Data[row+j] = (1-omega)*src.Data[row+j] + omega*v
			}
		}
	})
}

// SolveJacobi iterates Jacobi sweeps until the update falls below tol or
// maxIter sweeps pass, returning the solution and iteration count.
func SolveJacobi(f *Grid2D, h, tol float64, maxIter int) (*Grid2D, int) {
	u := NewGrid2D(f.NX, f.NY)
	v := NewGrid2D(f.NX, f.NY)
	for it := 1; it <= maxIter; it++ {
		d := JacobiStep(v, u, f, h)
		u, v = v, u
		if d < tol {
			return u, it
		}
	}
	return u, maxIter
}

// PoissonResidual returns ||f + lap(u)||_inf on the interior, the
// correctness check for the Poisson solvers (Jacobi and multigrid).
func PoissonResidual(u, f *Grid2D, h float64) float64 {
	nx, ny := u.NX, u.NY
	stride := ny + 2
	max := 0.0
	for i := 1; i <= nx; i++ {
		row := i * stride
		for j := 1; j <= ny; j++ {
			lap := (u.Data[row-stride+j] + u.Data[row+stride+j] +
				u.Data[row+j-1] + u.Data[row+j+1] - 4*u.Data[row+j]) / (h * h)
			r := math.Abs(f.Data[row+j] + lap)
			if r > max {
				max = r
			}
		}
	}
	return max
}

// JacobiFlopsPerCell is the FLOPs one Jacobi update spends per interior
// cell (4 adds + 1 fused scale + source term).
const JacobiFlopsPerCell = 6

// JacobiSweepFlops returns the FLOPs of one sweep on an nx x ny grid.
func JacobiSweepFlops(nx, ny int) float64 {
	return JacobiFlopsPerCell * float64(nx) * float64(ny)
}

// JacobiSweepBytes returns the memory traffic of one sweep: read u and f,
// write the new u (8-byte values; halo reuse makes neighbour loads cache
// hits, so each cell is charged once per array).
func JacobiSweepBytes(nx, ny int) float64 {
	return 3 * 8 * float64(nx) * float64(ny)
}

// HaloBytes2D returns the bytes one edge exchange moves for a strip
// decomposition of an nx-wide subdomain (one row of 8-byte values).
func HaloBytes2D(width int) float64 { return 8 * float64(width) }
