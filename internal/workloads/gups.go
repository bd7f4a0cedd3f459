package workloads

import (
	"clustersoc/internal/cluster"
	"clustersoc/internal/soc"
)

// GUPS is the HPCC RandomAccess benchmark (the suite the paper's CPU hpl
// and Latency-Bandwidth tests come from) as a cluster workload: each rank
// owns a slice of a giant table, generates random updates, buckets them
// by destination, and exchanges the buckets all-to-all each window — the
// canonical latency-and-network antagonist, and a sharp probe of the
// ThunderX-vs-A57 memory-parallelism gap (Sec. IV-A).
type GUPS struct {
	LogTableBytes int // total table size, log2
	Updates       float64
	Windows       int
}

// One update, as the CPU model sees it: an almost-certain cache miss (a
// random 8-byte touch in a multi-megabyte table), a couple of ALU ops,
// and one hard-to-predict branch in the HPCC generator.
const (
	gupsInstrPerUpdate    = 10.0
	gupsMemAccPerUpdate   = 2.0
	gupsBranchesPerUpdate = 1.0
)

// NewGUPS returns the standard configuration: a 2 GiB table and 2^31
// updates in 16 exchange windows.
func NewGUPS() *GUPS {
	return &GUPS{LogTableBytes: 31, Updates: float64(int64(1) << 31), Windows: 16}
}

func (g *GUPS) Name() string         { return "gups" }
func (g *GUPS) GPUAccelerated() bool { return false }
func (g *GUPS) RanksPerNode() int    { return 4 }

// Body returns the per-rank program.
func (g *GUPS) Body(cfg Config) func(*cluster.Context) {
	windows := cfg.scaledIters(g.Windows, 4)
	updatesPerWindow := g.Updates * cfg.scale() / float64(windows)
	return func(ctx *cluster.Context) {
		p := ctx.Size()
		perRank := updatesPerWindow / float64(p)
		tableShare := float64(int64(1)<<g.LogTableBytes) / float64(p)
		w := soc.CPUWork{
			Instr: perRank * gupsInstrPerUpdate,
			Flops: perRank, // one xor-update credited per update
			// The generator's acceptance branch is data-random.
			Branches:      perRank * gupsBranchesPerUpdate,
			BranchEntropy: 0.6,
			MemAccesses:   perRank * gupsMemAccPerUpdate,
			// Every table touch misses: no spatial locality at all.
			L1MissRate: 0.5,
			WorkingSet: tableShare,
			Bytes:      perRank * 16, // a read and a write per update
		}
		for win := 0; win < windows; win++ {
			ctx.Compute(w)
			if p > 1 {
				// Updates scatter uniformly: 1/p stay local, the rest
				// travel 8 bytes each.
				ctx.Alltoall(perRank * 8 / float64(p))
			}
			ctx.Phase()
		}
		ctx.Allreduce(8) // checksum verification
	}
}

func init() { register(NewGUPS()) }
