package workloads

import (
	"math"

	"clustersoc/internal/cluster"
	"clustersoc/internal/sim"
	"clustersoc/internal/soc"
)

// HPL is the Table I "hpl" benchmark: High Performance Linpack solving
// Ax=b by LU factorization with partial pivoting, distributed
// block-cyclically; hplPanelBytes and hplTrailingFlops give its per-step
// counts in closed form. Each elimination step factors a column panel on
// the owner's CPU, broadcasts it, exchanges pivot/U rows, and runs the
// trailing DGEMM update on the GPU — the structure that makes hpl both
// the highest-throughput and, on 1 GbE, the most network-limited workload
// of Table II.
//
// GPUWorkRatio < 1 reproduces the Fig. 7 experiment: that fraction of the
// trailing update runs on the GPU and the remainder on one CPU core,
// overlapped.
type HPL struct {
	N  int // matrix order (paper: sized to fill cluster memory)
	NB int // block size
}

// NewHPL returns the paper-sized configuration.
func NewHPL() *HPL { return &HPL{N: 20480, NB: 128} }

func (h *HPL) Name() string         { return "hpl" }
func (h *HPL) GPUAccelerated() bool { return true }
func (h *HPL) RanksPerNode() int    { return 1 }

// scaledN shrinks the matrix order with the cube root of Scale, so the
// FLOP volume (~N^3) scales roughly linearly with Scale.
func (h *HPL) scaledN(cfg Config) int {
	n := int(float64(h.N) * math.Cbrt(cfg.scale()))
	// Keep a multiple of NB, at least 16 panels.
	if n < 16*h.NB {
		n = 16 * h.NB
	}
	return (n / h.NB) * h.NB
}

// panelWork is the CPU cost of factoring a rows x nb panel: rows*nb^2
// FLOPs of column operations, run threaded across the node's cores the
// way HPL's panel factorization is.
func panelWork(rows, nb int) soc.CPUWork {
	flops := float64(rows) * float64(nb) * float64(nb)
	return soc.CPUWork{
		Instr:         1.0 * flops,
		Flops:         flops,
		Branches:      0.05 * flops,
		BranchEntropy: 0.15,
		MemAccesses:   0.5 * flops,
		L1MissRate:    0.04,
		WorkingSet:    float64(rows*nb) * 8,
		Bytes:         float64(rows*nb) * 8,
	}
}

// hplPanelBytes returns the bytes a panel broadcast moves at elimination
// step k with block size nb in an n-order problem (the column panel below
// the diagonal).
func hplPanelBytes(n, k, nb int) float64 {
	rows := n - k
	if rows < 0 {
		rows = 0
	}
	return float64(rows) * float64(nb) * 8
}

// hplTrailingFlops returns the FLOPs of the trailing DGEMM update at step
// k with block size nb.
func hplTrailingFlops(n, k, nb int) float64 {
	rem := float64(n - k - nb)
	if rem < 0 {
		rem = 0
	}
	return 2 * rem * rem * float64(nb)
}

// dgemmCPUWork is the cost of a trailing-update chunk on CPU cores with
// OpenBLAS-grade blocking (~1.5 GFLOPS per A57 core, as -O3 unturned HPL
// achieves).
func dgemmCPUWork(flops float64) soc.CPUWork {
	return soc.CPUWork{
		Instr:         2.2 * flops,
		Flops:         flops,
		Branches:      0.02 * flops,
		BranchEntropy: 0.05,
		MemAccesses:   0.45 * flops,
		L1MissRate:    0.02,
		WorkingSet:    1.5e6,
		Bytes:         flops * 0.25, // blocked GEMM DRAM traffic
	}
}

// weakN grows the matrix order with sqrt(P) so per-node memory (~N^2/P)
// stays constant under weak scaling.
func (h *HPL) weakN(base, ranks int) int {
	n := int(float64(base) * math.Sqrt(float64(ranks)))
	return (n / h.NB) * h.NB
}

// Body returns the GPU-accelerated per-rank program.
func (h *HPL) Body(cfg Config) func(*cluster.Context) {
	baseN := h.scaledN(cfg)
	ratio := cfg.workRatio()
	return func(ctx *cluster.Context) {
		p, rank := ctx.Size(), ctx.Rank
		n := baseN
		if cfg.WeakScaling {
			n = h.weakN(baseN, p)
		}
		// Lookahead: step k's trailing update runs on the GPU while step
		// k+1's panel is factored, broadcast, and staged — HPL's standard
		// overlap, which is what lets it approach the roofline (Table II).
		var pending *sim.Gate
		for k := 0; k+h.NB <= n; k += h.NB {
			step := k / h.NB
			owner := step % p
			rows := n - k
			panelBytes := hplPanelBytes(n, k, h.NB)

			if rank == owner {
				ctx.ComputeParallel(panelWork(rows, h.NB), ctx.Node().CPU.Cores)
			}
			ctx.Bcast(owner, panelBytes)
			ctx.CopyIn(panelBytes)

			// Pivot-row / U-panel exchange: nb pivot rows scatter across the
			// process ring and the U panel returns, so each step moves about
			// twice the rank's nb x cols share in each direction.
			cols := (n - k) / p
			uBytes := 2 * float64(h.NB) * float64(cols) * 8
			next, prev := (rank+1)%p, (rank-1+p)%p
			if p > 1 {
				ctx.Sendrecv(next, prev, 500+step, uBytes, uBytes)
				ctx.Sendrecv(prev, next, 500+step, uBytes, uBytes)
			}

			// Trailing update: DGEMM-shaped, split CPU/GPU by ratio. The
			// previous step's update must land before this one launches.
			if pending != nil {
				ctx.WaitKernel(pending)
			}
			trailFlops := hplTrailingFlops(n, k, h.NB) / float64(p)
			gpuFlops := trailFlops * ratio
			cpuFlops := trailFlops - gpuFlops
			pending = ctx.KernelAsync(gpuKernel("hpl_dgemm", gpuFlops, 0.5, 0.55, false))
			if cpuFlops > 0 {
				ctx.Compute(dgemmCPUWork(cpuFlops))
			}
			// Restorable state: this rank's share of the factored matrix.
			ctx.Checkpoint(float64(n) * float64(n) * 8 / float64(p))
			ctx.Phase()
		}
		if pending != nil {
			ctx.WaitKernel(pending)
		}
		// Back-substitution: 2 N^2 FLOPs, cheap, on the root's CPU.
		if rank == 0 {
			w := dgemmCPUWork(2 * float64(n) * float64(n))
			ctx.Compute(w)
		}
		ctx.Barrier()
	}
}

// HPLCPU is the CPU-only hpl from the HPCC suite (Table IV's "CPU" rows):
// the same elimination structure with the trailing update on the CPU
// cores, typically 4 MPI ranks per TX1 node (or 3 when collocated with
// the GPU version).
type HPLCPU struct {
	HPL
	Ranks int // ranks per node
}

// NewHPLCPU returns the CPU variant with the given process density.
func NewHPLCPU(ranksPerNode int) *HPLCPU {
	return &HPLCPU{HPL: *NewHPL(), Ranks: ranksPerNode}
}

func (h *HPLCPU) Name() string         { return "hpl-cpu" }
func (h *HPLCPU) GPUAccelerated() bool { return false }
func (h *HPLCPU) RanksPerNode() int    { return h.Ranks }

// Body returns the CPU per-rank program.
func (h *HPLCPU) Body(cfg Config) func(*cluster.Context) {
	n := h.scaledN(cfg)
	return func(ctx *cluster.Context) {
		p, rank := ctx.Size(), ctx.Rank
		for k := 0; k+h.NB <= n; k += h.NB {
			step := k / h.NB
			owner := step % p
			rows := n - k
			panelBytes := hplPanelBytes(n, k, h.NB)
			if rank == owner {
				ctx.Compute(panelWork(rows, h.NB))
			}
			ctx.Bcast(owner, panelBytes)
			cols := (n - k) / p
			uBytes := float64(h.NB) * float64(cols) * 8
			if p > 1 {
				next, prev := (rank+1)%p, (rank-1+p)%p
				ctx.Sendrecv(next, prev, 600+step, uBytes, uBytes)
			}
			trailFlops := hplTrailingFlops(n, k, h.NB) / float64(p)
			ctx.Compute(dgemmCPUWork(trailFlops))
			ctx.Checkpoint(float64(n) * float64(n) * 8 / float64(p))
			ctx.Phase()
		}
		ctx.Barrier()
	}
}

func init() {
	register(NewHPL())
	register(NewHPLCPU(4))
}
