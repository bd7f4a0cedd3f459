package workloads

import (
	"clustersoc/internal/cluster"
	"clustersoc/internal/kernels"
	"clustersoc/internal/soc"
)

// Jacobi is the Table I "jacobi" benchmark: the CUDA+MPI Poisson solver on
// a rectangle (matrix size 16384^2), decomposed into row strips with halo
// exchanges between neighbours and a periodic residual allreduce. Its
// kernel is the 5-point stencil of kernels.JacobiStep: 6 FLOPs and three
// 8-byte array touches per cell, giving a low DRAM-level operational
// intensity — the workload is memory-roof-limited on both networks
// (Table II) and gains little from 10 GbE (Fig. 1).
type Jacobi struct {
	N     int // grid points per side
	Iters int
}

// NewJacobi returns the paper-sized configuration.
func NewJacobi() *Jacobi { return &Jacobi{N: 16384, Iters: 1000} }

func (j *Jacobi) Name() string         { return "jacobi" }
func (j *Jacobi) GPUAccelerated() bool { return true }
func (j *Jacobi) RanksPerNode() int    { return 1 }

// haloBytes2D returns the bytes one edge exchange moves for a strip
// decomposition of an nx-wide subdomain (one row of 8-byte values). The
// jacobi, tealeaf2d and cloverleaf models share it.
func haloBytes2D(width int) float64 { return 8 * float64(width) }

// hostDriverWork is the per-iteration CPU cost of driving the GPU and MPI:
// kernel launches, device synchronizations that fetch reduction results,
// pointer swaps, and halo pack/unpack. launches counts the kernel-launch +
// sync round trips the iteration performs — the host-device
// synchronization cost the paper identifies as the Ser limiter of the
// GPGPU codes (Sec. III-B.4).
func hostDriverWork(haloBytes float64, launches int) soc.CPUWork {
	l := float64(launches)
	return soc.CPUWork{
		Instr:         1.5e6*l + haloBytes/4,
		Branches:      1.5e5 * l,
		BranchEntropy: 0.1,
		MemAccesses:   4e5*l + haloBytes/8,
		L1MissRate:    0.05,
		WorkingSet:    256 * 1024,
		Bytes:         2 * haloBytes,
	}
}

// Body returns the per-rank program.
func (j *Jacobi) Body(cfg Config) func(*cluster.Context) {
	iters := cfg.scaledIters(j.Iters, 8)
	return func(ctx *cluster.Context) {
		p, rank := ctx.Size(), ctx.Rank
		rows := j.N / p
		flops := kernels.JacobiSweepFlops(rows, j.N) // 6 per cell
		halo := haloBytes2D(j.N)

		// Restorable state: this rank's strip of the grid (one copy —
		// the checkpoint writes the converged-so-far field).
		stateBytes := float64(rows) * float64(j.N) * 8

		// The sweep kernel: DRAM OI ~ 6/24 = 0.25 FLOP/B; the TX1 L2
		// captures some neighbour reuse.
		k := gpuKernel("jacobi_sweep", flops, 0.25, 0.40, false)

		for it := 0; it < iters; it++ {
			ctx.Kernel(k)
			// Halo exchange: D2H, neighbour sendrecv, H2D.
			ctx.StageOut(2 * halo)
			ctx.Compute(hostDriverWork(2*halo, 1))
			if rank > 0 {
				ctx.Sendrecv(rank-1, rank-1, 100+it, halo, halo)
			}
			if rank < p-1 {
				ctx.Sendrecv(rank+1, rank+1, 100+it, halo, halo)
			}
			ctx.StageIn(2 * halo)
			// Convergence check every 10 sweeps: residual allreduce.
			if it%10 == 9 {
				ctx.Allreduce(8)
			}
			ctx.Checkpoint(stateBytes)
			ctx.Phase()
		}
	}
}

func init() { register(NewJacobi()) }
