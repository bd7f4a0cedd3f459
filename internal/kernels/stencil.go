package kernels

import "math"

// Grid2D is a dense 2D scalar field with a one-cell halo on each side,
// stored row-major on (nx+2) x (ny+2) points.
type Grid2D struct {
	NX, NY int
	Data   []float64
}

// NewGrid2D allocates a grid of nx x ny interior points.
func NewGrid2D(nx, ny int) *Grid2D {
	return &Grid2D{NX: nx, NY: ny, Data: make([]float64, (nx+2)*(ny+2))}
}

// JacobiStep performs one weighted-Jacobi sweep for the Poisson problem
// -lap(u) = f on the unit square (5-point stencil, Dirichlet halo),
// writing into dst and returning the max-norm change. Rows are processed
// in parallel; the per-row max distances are reduced in row order.
func JacobiStep(dst, src, f *Grid2D, h float64) float64 {
	nx, ny := src.NX, src.NY
	stride := ny + 2
	diffs := make([]float64, nx)
	parallelFor(nx, func(lo, hi int) {
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

// JacobiSweepFlops returns the FLOPs of one sweep on an nx x ny grid:
// 6 per interior cell (4 adds + 1 fused scale + source term).
func JacobiSweepFlops(nx, ny int) float64 {
	return 6 * float64(nx) * float64(ny)
}

// JacobiSweepBytes returns the memory traffic of one sweep: read u and f,
// write the new u (8-byte values; halo reuse makes neighbour loads cache
// hits, so each cell is charged once per array).
func JacobiSweepBytes(nx, ny int) float64 {
	return 3 * 8 * float64(nx) * float64(ny)
}
