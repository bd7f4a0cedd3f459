package workloads

import "clustersoc/internal/cluster"

// TeaLeaf models the Table I tealeaf2d/tealeaf3d benchmarks: the linear
// heat-conduction equation solved implicitly with conjugate gradients on
// a 5-point (2D) or 7-point (3D) operator, with the per-cell counts
// written out in Body. Each CG iteration launches stencil/vector kernels,
// exchanges halos, and runs two scalar allreduces (the dot products) — the
// allreduce-per-iteration pattern that makes tealeaf latency-sensitive,
// and in 3D the large faces make it bandwidth-hungry too, which is why
// tealeaf3d is network-limited on 1 GbE (Table II) and among the biggest
// 10 GbE winners (Fig. 1).
type TeaLeaf struct {
	Tag          string
	NX, NY, NZ   int // NZ = 1 for 2D
	Steps        int
	CGIterations int // inner solver iterations per timestep
}

// NewTeaLeaf2D returns the 2D configuration (4096x4096 cells).
func NewTeaLeaf2D() *TeaLeaf {
	return &TeaLeaf{Tag: "tealeaf2d", NX: 4096, NY: 4096, NZ: 1, Steps: 100, CGIterations: 30}
}

// NewTeaLeaf3D returns the 3D configuration (256^3 cells).
func NewTeaLeaf3D() *TeaLeaf {
	return &TeaLeaf{Tag: "tealeaf3d", NX: 256, NY: 256, NZ: 256, Steps: 50, CGIterations: 40}
}

func (t *TeaLeaf) Name() string         { return t.Tag }
func (t *TeaLeaf) GPUAccelerated() bool { return true }
func (t *TeaLeaf) RanksPerNode() int    { return 1 }

// Body returns the per-rank program: Steps outer timesteps, each running
// CGIterations of the solver on the rank's strip of the domain.
func (t *TeaLeaf) Body(cfg Config) func(*cluster.Context) {
	steps := cfg.scaledIters(t.Steps, 4)
	return func(ctx *cluster.Context) {
		p, rank := ctx.Size(), ctx.Rank
		cellsPerRank := float64(t.NX) * float64(t.NY) * float64(t.NZ) / float64(p)

		// One CG iteration: operator apply (7 or 9 FLOPs/cell), two dots
		// (4 FLOPs/cell), three axpys (6 FLOPs/cell).
		opFlops := 9.0
		haloBytes := haloBytes2D(t.NX) // 2D: one row
		oi := 0.22
		if t.NZ > 1 {
			opFlops = 11
			haloBytes = 8 * float64(t.NY) * float64(t.NZ) // 3D: a full face
			oi = 0.18
		}
		cgFlops := (opFlops + 4 + 6) * cellsPerRank
		k := gpuKernel(t.Tag+"_cg", cgFlops, oi, 0.35, false)

		imb := imbalance(rank, t.imbalanceAmp())
		kImb := k
		kImb.FLOPs *= imb
		kImb.Bytes *= imb

		for s := 0; s < steps; s++ {
			for it := 0; it < t.CGIterations; it++ {
				ctx.Kernel(kImb)
				ctx.StageOut(2 * haloBytes)
				ctx.Compute(hostDriverWork(2*haloBytes, 6))
				if rank > 0 {
					ctx.Sendrecv(rank-1, rank-1, 300+it, haloBytes, haloBytes)
				}
				if rank < p-1 {
					ctx.Sendrecv(rank+1, rank+1, 300+it, haloBytes, haloBytes)
				}
				ctx.StageIn(2 * haloBytes)
				// The two CG dot products.
				ctx.Allreduce(8)
				ctx.Allreduce(8)
			}
			ctx.Phase()
		}
	}
}

// imbalanceAmp: the 2D decomposition splits unevenly (the paper's ideal-
// load-balance replay helps tealeaf2d the most among the GPU codes).
func (t *TeaLeaf) imbalanceAmp() float64 {
	if t.NZ == 1 {
		return 0.18
	}
	return 0.06
}

func init() {
	register(NewTeaLeaf2D())
	register(NewTeaLeaf3D())
}
