package workloads

import "clustersoc/internal/cluster"

// CloverLeaf models the Table I "cloverleaf" benchmark: the compressible
// Euler equations advanced explicitly on a 3840^2 staggered grid. Each
// timestep runs the hydro kernels (an estimated ~130 FLOP/cell, see
// eulerStepFlopsPerCell), exchanges halos for the conserved field arrays,
// and computes the CFL timestep with an allreduce. Its moderate network
// and DRAM traffic put it in the middle band of Fig. 3: no appreciable
// speedup from 10 GbE.
type CloverLeaf struct {
	N     int // cells per side
	Steps int
}

// eulerStepFlopsPerCell estimates the FLOPs of one hydro step per cell:
// four Rusanov fluxes of four components plus the update, about 130
// FLOPs/cell, the order of cloverleaf's published per-cell cost.
const eulerStepFlopsPerCell = 130

// eulerFieldCount is the number of conserved field arrays exchanged at
// halos each step.
const eulerFieldCount = 4

// NewCloverLeaf returns the paper-sized configuration.
func NewCloverLeaf() *CloverLeaf { return &CloverLeaf{N: 3840, Steps: 500} }

func (c *CloverLeaf) Name() string         { return "cloverleaf" }
func (c *CloverLeaf) GPUAccelerated() bool { return true }
func (c *CloverLeaf) RanksPerNode() int    { return 1 }

// Body returns the per-rank program.
func (c *CloverLeaf) Body(cfg Config) func(*cluster.Context) {
	steps := cfg.scaledIters(c.Steps, 6)
	return func(ctx *cluster.Context) {
		p, rank := ctx.Size(), ctx.Rank
		cellsPerRank := float64(c.N) * float64(c.N) / float64(p)
		flops := eulerStepFlopsPerCell * cellsPerRank
		// Several field arrays per cell stream each step: low OI.
		k := gpuKernel("clover_hydro", flops, 0.18, 0.30, false)
		imb := imbalance(rank, 0.08)
		k.FLOPs *= imb
		k.Bytes *= imb

		// Halos carry the four conserved fields (and velocities on the
		// staggered mesh, folded into the field count).
		halo := eulerFieldCount * haloBytes2D(c.N)

		for s := 0; s < steps; s++ {
			ctx.Kernel(k)
			ctx.StageOut(2 * halo)
			ctx.Compute(hostDriverWork(2*halo, 14))
			if rank > 0 {
				ctx.Sendrecv(rank-1, rank-1, 400+s, halo, halo)
			}
			if rank < p-1 {
				ctx.Sendrecv(rank+1, rank+1, 400+s, halo, halo)
			}
			ctx.StageIn(2 * halo)
			// Global CFL reduction.
			ctx.Allreduce(8)
			ctx.Phase()
		}
	}
}

func init() { register(NewCloverLeaf()) }
