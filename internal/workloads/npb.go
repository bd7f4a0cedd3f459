package workloads

import (
	"math"

	"clustersoc/internal/cluster"
	"clustersoc/internal/soc"
	"clustersoc/internal/units"
)

// The NPB class C suite is the paper's CPU-side workload set (largest
// class that fits a TX1 node's memory, except ft). Each benchmark is
// modeled by its documented class C work volume, its communication
// schedule, and a microarchitectural profile (branch entropy, locality,
// hot working set) that reproduces its published behaviour on the two ARM
// systems: bt/ep/mg/sp are compute-shaped and expose the ThunderX's
// branch predictor and L2 (Sec. IV-A); cg/ft/is/lu are communication- and
// imbalance-shaped and scale poorly on the cluster (Fig. 6).
//
// Each model's work volume is the benchmark's published class C total
// (the flops field); no kernel is executed or counted.
type npb struct {
	name  string
	flops float64 // total class C useful FLOPs (ops for is)
	iters int

	instrPerFlop   float64
	branchPerInstr float64
	entropy        float64
	memAccPerInstr float64
	l1Miss         float64
	workingSet     float64 // hot per-thread working set
	dramPerInstr   float64 // DRAM bytes per instruction
	imbalanceAmp   float64

	// computeInComm moves the per-iteration compute inside the comm
	// schedule (cg's inner solver, lu's wavefront stages), so waits and
	// compute interleave the way the real code's do.
	computeInComm bool

	comm func(w *npb, ctx *cluster.Context, it int, cw soc.CPUWork)
}

func (w *npb) Name() string         { return w.name }
func (w *npb) GPUAccelerated() bool { return false }
func (w *npb) RanksPerNode() int    { return 4 }

// work returns the per-iteration CPU work for one rank.
func (w *npb) work(ranks int) soc.CPUWork {
	instr := w.flops * w.instrPerFlop / float64(w.iters) / float64(ranks)
	return soc.CPUWork{
		Instr:         instr,
		Flops:         w.flops / float64(w.iters) / float64(ranks),
		Branches:      instr * w.branchPerInstr,
		BranchEntropy: w.entropy,
		MemAccesses:   instr * w.memAccPerInstr,
		L1MissRate:    w.l1Miss,
		WorkingSet:    w.workingSet,
		Bytes:         instr * w.dramPerInstr,
	}
}

// Body returns the per-rank program: iterate compute + the benchmark's
// communication schedule.
func (w *npb) Body(cfg Config) func(*cluster.Context) {
	iters := cfg.scaledIters(w.iters, 4)
	return func(ctx *cluster.Context) {
		// Scale shrinks the run by dropping iterations; per-iteration work
		// and traffic keep their true ratio, so shapes are scale-invariant.
		base := w.work(ctx.Size())
		cw := base.Scale(imbalance(ctx.Rank, w.imbalanceAmp))
		for it := 0; it < iters; it++ {
			if !w.computeInComm {
				ctx.Compute(cw)
			}
			if w.comm != nil {
				w.comm(w, ctx, it, cw)
			}
			ctx.Phase()
		}
		ctx.Allreduce(64) // final verification reduction
	}
}

// ringComm exchanges face data with both grid neighbours (bt/sp's ADI
// face exchanges, collapsed to a ring).
func ringComm(faceBytes func(ranks int) float64) func(*npb, *cluster.Context, int, soc.CPUWork) {
	return func(w *npb, ctx *cluster.Context, it int, _ soc.CPUWork) {
		p, r := ctx.Size(), ctx.Rank
		if p == 1 {
			return
		}
		b := faceBytes(p)
		ctx.Sendrecv((r+1)%p, (r-1+p)%p, 700+it, b, b)
		ctx.Sendrecv((r-1+p)%p, (r+1)%p, 700+it, b, b)
	}
}

// npbBT: 162^3 ADI solver, 200 timesteps.
func npbBT() *npb {
	return &npb{
		name: "bt", flops: 5.7e11, iters: 200,
		instrPerFlop: 2.6, branchPerInstr: 0.12, entropy: 0.45,
		memAccPerInstr: 0.35, l1Miss: 0.07, workingSet: 1.5 * units.MiB,
		dramPerInstr: 0.15, imbalanceAmp: 0.05,
		comm: ringComm(func(p int) float64 { return 162 * 162 * 5 * 8 / float64(p) * 3 }),
	}
}

// npbSP: 162^3 scalar penta-diagonal solver, 400 timesteps.
func npbSP() *npb {
	return &npb{
		name: "sp", flops: 4.7e11, iters: 400,
		instrPerFlop: 2.8, branchPerInstr: 0.12, entropy: 0.40,
		memAccPerInstr: 0.40, l1Miss: 0.10, workingSet: 2 * units.MiB,
		dramPerInstr: 0.2, imbalanceAmp: 0.05,
		comm: ringComm(func(p int) float64 { return 162 * 162 * 5 * 8 / float64(p) * 2 }),
	}
}

// npbMG: 512^3 multigrid V-cycles — the paper's worst case for the
// ThunderX: the irregular level traversal defeats its branch predictor
// (highest BR_MIS_PRED and INST_SPEC of Fig. 8) and thrashes its thin
// per-core L2 slice.
func npbMG() *npb {
	w := &npb{
		name: "mg", flops: 1.5e11, iters: 20,
		instrPerFlop: 2.8, branchPerInstr: 0.20, entropy: 0.85,
		memAccPerInstr: 0.45, l1Miss: 0.15, workingSet: 0.9 * units.MiB,
		dramPerInstr: 0.5, imbalanceAmp: 0.05,
	}
	w.comm = func(_ *npb, ctx *cluster.Context, it int, _ soc.CPUWork) {
		p, r := ctx.Size(), ctx.Rank
		if p == 1 {
			return
		}
		// Halo exchanges on every grid level, geometrically shrinking.
		for level := 0; level < 5; level++ {
			b := 6 * 512 * 512 * 8 / float64(p) / math.Pow(4, float64(level))
			ctx.Sendrecv((r+1)%p, (r-1+p)%p, 710+8*it+level, b, b)
		}
		ctx.Allreduce(8) // residual norm
	}
	return w
}

// npbEP: 2^32 Marsaglia pairs, almost no communication — the control
// case for the network experiments — but the data-dependent rejection
// branch and the tally tables give it the suite's highest L2 miss ratio
// on the ThunderX (Sec. IV-A).
func npbEP() *npb {
	w := &npb{
		name: "ep", flops: 1.3e11, iters: 16,
		instrPerFlop: 1.8, branchPerInstr: 0.20, entropy: 0.75,
		memAccPerInstr: 0.20, l1Miss: 0.06, workingSet: 0.95 * units.MiB,
		dramPerInstr: 0.02, imbalanceAmp: 0.02,
	}
	w.comm = func(_ *npb, ctx *cluster.Context, it int, _ soc.CPUWork) {
		ctx.Allreduce(80) // annulus counters
	}
	return w
}

// npbCG: conjugate gradients on a 150000-row random sparse matrix: per
// inner iteration two latency-bound dot-product allreduces plus large
// irregular vector exchanges — the network and load-imbalance profile
// that makes cg favour the single-box Cavium.
func npbCG() *npb {
	w := &npb{
		name: "cg", flops: 1.6e11, iters: 75, // outer iterations
		instrPerFlop: 2.5, branchPerInstr: 0.10, entropy: 0.20,
		memAccPerInstr: 0.30, l1Miss: 0.04, workingSet: 0.4 * units.MiB,
		dramPerInstr: 0.2, imbalanceAmp: 0.25,
	}
	w.computeInComm = true
	const inner = 25
	w.comm = func(_ *npb, ctx *cluster.Context, it int, cw soc.CPUWork) {
		p, r := ctx.Size(), ctx.Rank
		step := cw.Scale(1.0 / inner)
		ex := 150000.0 * 8 * 3 / math.Sqrt(float64(p))
		for in := 0; in < inner; in++ {
			ctx.Compute(step)
			if p == 1 {
				continue
			}
			// Hypercube-style exchange partner; with a non-power-of-two
			// communicator the missing partner's exchange is simply skipped
			// (ranks pair by XOR, so the skip is symmetric).
			partner := r ^ (1 << (in % intLog2(p)))
			if partner < p {
				ctx.Sendrecv(partner, partner, 720+inner*it+in, ex, ex)
			}
			ctx.Allreduce(8)
			ctx.Allreduce(8)
		}
	}
	return w
}

// npbFT: 512^3 spectral solver with a transpose-based 3D FFT: one
// full-volume all-to-all per iteration — the most network-bound workload
// of the suite, with the biggest 10 GbE gain in Fig. 1.
func npbFT() *npb {
	w := &npb{
		name: "ft", flops: 3.8e11, iters: 20,
		instrPerFlop: 1.2, branchPerInstr: 0.06, entropy: 0.20,
		memAccPerInstr: 0.30, l1Miss: 0.05, workingSet: 0.4 * units.MiB,
		dramPerInstr: 0.5, imbalanceAmp: 0.03,
	}
	w.comm = func(_ *npb, ctx *cluster.Context, it int, _ soc.CPUWork) {
		p := ctx.Size()
		if p == 1 {
			return
		}
		total := 512.0 * 512 * 512 * 16 // complex grid
		ctx.Alltoall(total / float64(p) / float64(p))
	}
	return w
}

// npbIS: 2^27-key integer bucket sort: the key scatter is an all-to-all
// of the entire dataset every iteration; very little arithmetic.
func npbIS() *npb {
	w := &npb{
		name: "is", flops: 3.5e10, iters: 10, // "ops": integer work
		instrPerFlop: 1.0, branchPerInstr: 0.15, entropy: 0.30,
		memAccPerInstr: 0.40, l1Miss: 0.10, workingSet: 0.4 * units.MiB,
		dramPerInstr: 0.8, imbalanceAmp: 0.05,
	}
	w.comm = func(_ *npb, ctx *cluster.Context, it int, _ soc.CPUWork) {
		p := ctx.Size()
		if p == 1 {
			return
		}
		keys := math.Pow(2, 27) * 4 // bytes
		ctx.Alltoall(keys / float64(p) / float64(p))
		ctx.Allreduce(1 << 13) // bucket histograms
	}
	return w
}

// npbLU: 162^3 SSOR solver: the lower/upper triangular sweeps form a
// wavefront pipeline across the rank grid — the serialization (Ser) and
// load-imbalance profile of Fig. 6, plus tens of thousands of small
// latency-bound messages.
func npbLU() *npb {
	w := &npb{
		name: "lu", flops: 4.0e11, iters: 60, // time-step blocks
		instrPerFlop: 2.2, branchPerInstr: 0.15, entropy: 0.25,
		memAccPerInstr: 0.25, l1Miss: 0.012, workingSet: 0.4 * units.MiB,
		dramPerInstr: 0.1, imbalanceAmp: 0.30,
	}
	w.computeInComm = true
	const stages = 24
	w.comm = func(_ *npb, ctx *cluster.Context, it int, cw soc.CPUWork) {
		p, r := ctx.Size(), ctx.Rank
		step := cw.Scale(1.0 / (2 * stages))
		if p == 1 {
			for s := 0; s < 2*stages; s++ {
				ctx.Compute(step)
			}
			return
		}
		// The SSOR wavefront sweeps the whole rank chain; every hop pays
		// the interconnect's latency and serialization, which is what makes
		// lu prefer the single box (Sec. IV-A).
		chain := 1
		msg := 162.0 * 162 * 5 * 8 * 3 / float64(p)
		for sweep := 0; sweep < 2; sweep++ {
			for s := 0; s < stages; s++ {
				tag := 740 + (it*2+sweep)*stages + s
				if r >= chain {
					ctx.Recv(r-chain, tag)
				}
				ctx.Compute(step)
				if r+chain < p {
					ctx.Send(r+chain, tag, msg)
				}
			}
		}
	}
	return w
}

// intLog2 returns floor(log2(n)) with a minimum of 1.
func intLog2(n int) int {
	l := 0
	for n > 1 {
		n >>= 1
		l++
	}
	if l < 1 {
		l = 1
	}
	return l
}

func init() {
	register(npbBT())
	register(npbCG())
	register(npbEP())
	register(npbFT())
	register(npbIS())
	register(npbLU())
	register(npbMG())
	register(npbSP())
}
