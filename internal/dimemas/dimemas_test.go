package dimemas

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"clustersoc/internal/cluster"
	"clustersoc/internal/mpi"
	"clustersoc/internal/network"
	"clustersoc/internal/sim"
	"clustersoc/internal/trace"
	"clustersoc/internal/units"
	"clustersoc/internal/workloads"
)

// traceRun executes a per-rank body with tracing on an n-node cluster and
// returns the trace (Runtime stamped).
func traceRun(n int, prof network.Profile, body func(p *sim.Process, tr *trace.Tracer, c *mpi.Comm, rank int)) *trace.Trace {
	e := sim.NewEngine()
	nw := network.New(e, n, prof)
	nodes := make([]int, n)
	for i := range nodes {
		nodes[i] = i
	}
	c := mpi.NewComm(e, nw, nodes)
	tr := trace.New(nodes)
	c.SetRecorder(tr)
	for r := 0; r < n; r++ {
		r := r
		e.Spawn("rank", func(p *sim.Process) { body(p, tr, c, r) })
	}
	runtime := e.Run()
	tr.Finish(runtime)
	return &tr.T
}

// A balanced iterative halo-exchange benchmark: compute then exchange with
// ring neighbours.
func ringWorkload(computeSec float64, iters int, haloBytes float64, imbalance func(rank int) float64) func(p *sim.Process, tr *trace.Tracer, c *mpi.Comm, rank int) {
	return func(p *sim.Process, tr *trace.Tracer, c *mpi.Comm, rank int) {
		n := c.Size()
		for it := 0; it < iters; it++ {
			d := computeSec * imbalance(rank)
			start := p.Now()
			p.Sleep(d)
			tr.RecordCompute(rank, d, start)
			right := (rank + 1) % n
			left := (rank - 1 + n) % n
			c.Sendrecv(p, rank, right, left, it+1, haloBytes, haloBytes)
			tr.RecordPhase(rank, p.Now())
		}
	}
}

func balanced(int) float64 { return 1 }

// mustReplay replays a trace the simulator recorded, which cannot
// deadlock.
func mustReplay(t *testing.T, tr *trace.Trace, opts Options) float64 {
	t.Helper()
	v, err := Replay(tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// mustDecompose is Decompose for a trace the simulator recorded.
func mustDecompose(t *testing.T, tr *trace.Trace) Efficiency {
	t.Helper()
	e, err := Decompose(tr)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestReplayIdentityReproducesRuntime(t *testing.T) {
	tr := traceRun(4, network.GigE, ringWorkload(0.01, 10, 1*units.MB, balanced))
	replayed := mustReplay(t, tr, Options{Net: NICModel(network.GigE)})
	if math.Abs(replayed-tr.Runtime)/tr.Runtime > 0.05 {
		t.Fatalf("identity replay %.5f vs measured %.5f (>5%% off)", replayed, tr.Runtime)
	}
}

func TestIdealNetworkNeverSlower(t *testing.T) {
	tr := traceRun(4, network.GigE, ringWorkload(0.002, 10, 4*units.MB, balanced))
	ideal := mustReplay(t, tr, Options{Net: IdealNetwork})
	if ideal > tr.Runtime {
		t.Fatalf("ideal network replay %.5f slower than measured %.5f", ideal, tr.Runtime)
	}
	// This workload is network-dominated: ideal network should be a large win.
	if tr.Runtime/ideal < 2 {
		t.Errorf("network-bound workload only improved %.2fx on ideal network", tr.Runtime/ideal)
	}
}

func TestIdealLoadBalanceHelpsImbalancedRun(t *testing.T) {
	skew := func(rank int) float64 { return 1 + float64(rank)*0.5 } // rank 3 does 2.5x work
	tr := traceRun(4, network.TenGigE, ringWorkload(0.01, 10, 10*units.KB, skew))
	real := NICModel(network.TenGigE)
	base := mustReplay(t, tr, Options{Net: real})
	lb := mustReplay(t, tr, Options{Net: real, IdealLoadBalance: true})
	if lb >= base {
		t.Fatalf("ideal LB replay %.5f not faster than base %.5f", lb, base)
	}
	// Perfectly balancing a 2.5x skew should approach the mean: speedup
	// toward max/mean = 2.5/1.75 ~ 1.43.
	if base/lb < 1.2 {
		t.Errorf("ideal LB speedup only %.2f", base/lb)
	}
}

func TestIdealLoadBalanceNoopOnBalancedRun(t *testing.T) {
	tr := traceRun(4, network.TenGigE, ringWorkload(0.01, 5, 10*units.KB, balanced))
	real := Options{Net: IdealNetwork}
	balancedOpts := Options{Net: IdealNetwork, IdealLoadBalance: true}
	a, b := mustReplay(t, tr, real), mustReplay(t, tr, balancedOpts)
	if math.Abs(a-b)/a > 1e-9 {
		t.Fatalf("ideal LB changed a balanced run: %v vs %v", a, b)
	}
}

func TestDecomposeBounds(t *testing.T) {
	skew := func(rank int) float64 { return 1 + float64(rank)*0.3 }
	tr := traceRun(4, network.GigE, ringWorkload(0.005, 10, 2*units.MB, skew))
	e := mustDecompose(t, tr)
	for name, v := range map[string]float64{"LB": e.LB, "Ser": e.Ser, "Trf": e.Trf, "Eta": e.Eta} {
		if v < 0 || v > 1 {
			t.Errorf("%s = %v out of [0,1]", name, v)
		}
	}
	if math.Abs(e.Eta-e.LB*e.Ser*e.Trf) > 1e-12 {
		t.Error("Eta != LB*Ser*Trf")
	}
	// The skewed workload must show LB < 1; the 1 GbE halo traffic must
	// show Trf < 1.
	if e.LB > 0.95 {
		t.Errorf("LB = %v for a skewed run", e.LB)
	}
	if e.Trf > 0.95 {
		t.Errorf("Trf = %v for a network-heavy 1GbE run", e.Trf)
	}
}

// Eta should equal the direct parallel efficiency (sum of compute) / (P *
// runtime) up to the clamping — the decomposition's defining identity.
func TestDecompositionIdentity(t *testing.T) {
	tr := traceRun(4, network.GigE, ringWorkload(0.01, 8, 1*units.MB, func(r int) float64 { return 1 + 0.2*float64(r) }))
	e := mustDecompose(t, tr)
	comp := tr.ComputeSeconds()
	sum := 0.0
	for _, c := range comp {
		sum += c
	}
	direct := sum / (float64(len(comp)) * tr.Runtime)
	if math.Abs(e.Eta-direct)/direct > 0.05 {
		t.Fatalf("Eta %.4f vs direct efficiency %.4f", e.Eta, direct)
	}
}

// TestPhases pins the phase chopper the ideal-load-balance replay runs:
// phase markers split each rank's compute into phases (3 marked phases
// plus the empty tail here), and each rank's compute in a phase is
// scaled to the phase mean.
func TestPhases(t *testing.T) {
	tr := trace.New([]int{0, 1})
	for it := 0; it < 3; it++ {
		tr.RecordCompute(0, 1, float64(it))
		tr.RecordCompute(1, 2, float64(it))
		tr.RecordPhase(0, float64(it)+1)
		tr.RecordPhase(1, float64(it)+1)
	}
	scale := computeScales(&tr.T, true)
	if len(scale) != 2 || len(scale[0]) != 4 || len(scale[1]) != 4 {
		t.Fatalf("scales %v: want 2 ranks x 4 phases", scale)
	}
	for ph := 0; ph < 3; ph++ {
		if scale[0][ph] != 1.5 || scale[1][ph] != 0.75 {
			t.Fatalf("phase %d scales %v, %v; want 1.5 and 0.75 (mean 1.5 s over 1 s and 2 s)",
				ph, scale[0][ph], scale[1][ph])
		}
	}
	if scale[0][3] != 1 || scale[1][3] != 1 {
		t.Fatalf("empty tail scales %v, %v; want 1", scale[0][3], scale[1][3])
	}
	if computeScales(&tr.T, false) != nil {
		t.Fatal("without ideal load balance every factor is 1, so no scales are due")
	}
}

// Property: for any op sequence, phases hold compute only (copies are
// not rescaled), every rank's scaled compute in a phase is the phase
// mean, and so scaling conserves each phase's total compute.
func TestPhaseConservationProperty(t *testing.T) {
	f := func(durRaw []uint8) bool {
		tr := trace.New([]int{0, 1})
		comp := [][]float64{{0}, {0}} // per rank, per phase
		for i, d := range durRaw {
			durs := [2]float64{float64(d)/10 + 0.1, float64(255-d)/10 + 0.1}
			for r, dur := range durs {
				tr.RecordCompute(r, dur, 0)
				tr.RecordCopy(r, float64(d)/20+0.1, 0)
				comp[r][len(comp[r])-1] += dur
				if i%3 == 2 {
					tr.RecordPhase(r, 0)
					comp[r] = append(comp[r], 0)
				}
			}
		}
		scale := computeScales(&tr.T, true)
		if len(scale[0]) != len(comp[0]) || len(scale[1]) != len(comp[1]) {
			return false
		}
		for ph := range comp[0] {
			mean := (comp[0][ph] + comp[1][ph]) / 2
			total := 0.0
			for r := range comp {
				scaled := scale[r][ph] * comp[r][ph]
				if math.Abs(scaled-mean) > 1e-9*(1+mean) {
					return false
				}
				total += scaled
			}
			if math.Abs(total-2*mean) > 1e-9*(1+mean) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestPhaseChopping runs the chopper on a simulated trace: 4 phase
// markers give 5 phases per rank (the last one the empty tail), and
// each rank's skewed compute is scaled to the phase mean.
func TestPhaseChopping(t *testing.T) {
	skew := func(r int) float64 { return 1 + 0.5*float64(r) }
	tr := traceRun(3, network.TenGigE, ringWorkload(0.01, 4, 1000, skew))
	scale := computeScales(tr, true)
	mean := (skew(0) + skew(1) + skew(2)) / 3
	for r, s := range scale {
		if len(s) != 5 {
			t.Fatalf("rank %d has %d phases, want 5", r, len(s))
		}
		for ph := 0; ph < 4; ph++ {
			if want := mean / skew(r); math.Abs(s[ph]-want) > 1e-9 {
				t.Fatalf("phase %d rank %d scale = %v, want %v", ph, r, s[ph], want)
			}
		}
		if s[4] != 1 {
			t.Fatalf("rank %d empty tail scale = %v, want 1", r, s[4])
		}
	}
}

// A receive no send matches deadlocks the replay. Traces arrive from
// files, so that is an error for the caller, not a panic.
func TestReplayUnmatchedRecvIsAnError(t *testing.T) {
	tr := &trace.Trace{Ranks: []*trace.RankTrace{
		{Rank: 0, Node: 0, Ops: []trace.Op{{Kind: trace.OpRecv, Peer: 1, Tag: 1}}},
		{Rank: 1, Node: 1},
	}, Runtime: 1}
	if _, err := Replay(tr, Options{Net: IdealNetwork}); err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("Replay error = %v, want a deadlock error", err)
	}
	if _, err := Decompose(tr); err == nil {
		t.Fatal("Decompose accepted a trace whose replay deadlocks")
	}
}

// The DIMEMAS bus-contention model: unlimited buses matches the default
// model; one bus serializes all inter-node transfers and can only slow
// the replay down; more buses monotonically release the pressure.
func TestBusContention(t *testing.T) {
	tr := traceRun(4, network.GigE, ringWorkload(0.001, 8, 2*units.MB, balanced))
	net := NICModel(network.GigE)
	free := mustReplay(t, tr, Options{Net: net})
	unlimited := mustReplay(t, tr, Options{Net: net, Buses: 1 << 20})
	if math.Abs(free-unlimited)/free > 1e-9 {
		t.Fatalf("huge bus count (%v) should match the free model (%v)", unlimited, free)
	}
	one := mustReplay(t, tr, Options{Net: net, Buses: 1})
	two := mustReplay(t, tr, Options{Net: net, Buses: 2})
	if one < free {
		t.Fatalf("one bus (%v) cannot beat the contention-free model (%v)", one, free)
	}
	if one < two-1e-12 {
		t.Fatalf("more buses should not slow the replay: 1 bus %v vs 2 buses %v", one, two)
	}
	// This ring workload keeps 4 transfers in flight; one bus must
	// actually hurt.
	if one < free*1.5 {
		t.Errorf("single-bus replay %v suspiciously close to free %v", one, free)
	}
}

// referenceReplay is Replay as it was with map-keyed matching: one FIFO
// of arrival times per (src, dst, tag). It is the oracle for the
// slice-matched Replay, which must reproduce its bits and errors, so it
// keeps its multiply-by-one when load balance is off.
func referenceReplay(t *trace.Trace, opts Options) (float64, error) {
	type matchKey struct{ src, dst, tag int }
	n := len(t.Ranks)
	scale := computeScales(t, opts.IdealLoadBalance)

	clocks := make([]float64, n)
	idx := make([]int, n)
	phase := make([]int, n)
	arrivals := make(map[matchKey][]float64)
	var buses []float64
	if opts.Buses > 0 {
		buses = make([]float64, opts.Buses)
	}

	remaining := 0
	for _, r := range t.Ranks {
		remaining += len(r.Ops)
	}
	for remaining > 0 {
		progress := false
		for r := 0; r < n; r++ {
			rt := t.Ranks[r]
			stuck := false
			for idx[r] < len(rt.Ops) && !stuck {
				op := rt.Ops[idx[r]]
				switch op.Kind {
				case trace.OpCompute:
					f := 1.0
					if scale != nil {
						f = scale[r][phase[r]]
					}
					clocks[r] += op.Dur * f
				case trace.OpCopy:
					clocks[r] += op.Dur
				case trace.OpPhase:
					phase[r]++
				case trace.OpSend:
					bw, lat := opts.Net.Bandwidth, opts.Net.Latency
					intra := t.Ranks[op.Peer].Node == rt.Node
					if intra {
						bw, lat = opts.Net.IntraBandwidth, opts.Net.IntraLatency
					}
					start := clocks[r]
					if len(buses) > 0 && !intra {
						bi := 0
						for i := 1; i < len(buses); i++ {
							if buses[i] < buses[bi] {
								bi = i
							}
						}
						if buses[bi] > start {
							start = buses[bi]
						}
						buses[bi] = start + op.Bytes/bw
					}
					drain := start + op.Bytes/bw
					k := matchKey{r, op.Peer, op.Tag}
					arrivals[k] = append(arrivals[k], drain+lat)
					clocks[r] = drain
				case trace.OpRecv:
					k := matchKey{op.Peer, r, op.Tag}
					q := arrivals[k]
					if len(q) == 0 {
						stuck = true
						continue
					}
					if len(q) == 1 {
						delete(arrivals, k)
					} else {
						arrivals[k] = q[1:]
					}
					if q[0] > clocks[r] {
						clocks[r] = q[0]
					}
				}
				idx[r]++
				remaining--
				progress = true
			}
		}
		if !progress {
			return 0, fmt.Errorf("dimemas: replay deadlock with %d ops remaining (a receive no send matches)", remaining)
		}
	}
	max := 0.0
	for _, c := range clocks {
		if c > max {
			max = c
		}
	}
	return max, nil
}

// sameReplay reports whether two replay outcomes agree exactly: the same
// float bits, or the same error text.
func sameReplay(got float64, gotErr error, want float64, wantErr error) bool {
	if gotErr != nil || wantErr != nil {
		return gotErr != nil && wantErr != nil && gotErr.Error() == wantErr.Error()
	}
	return math.Float64bits(got) == math.Float64bits(want)
}

// The replayer returns the reference's bits on a traced run of every
// registry workload, under the models the artifacts and the replay
// command use: the ideal network, ideal load balance on 10 GbE (Fig. 5/6)
// and DIMEMAS bus contention on 1 GbE.
func TestReplayMatchesReference(t *testing.T) {
	models := map[string]Options{
		"ideal network":   {Net: IdealNetwork},
		"ideal LB 10GbE":  {Net: NICModel(network.TenGigE), IdealLoadBalance: true},
		"2 buses on 1GbE": {Net: NICModel(network.GigE), Buses: 2},
	}
	all := workloads.All()
	if len(all) != 17 {
		t.Fatalf("registry holds %d workloads, want 17", len(all))
	}
	for _, w := range all {
		cfg := cluster.TX1Cluster(4, network.TenGigE)
		cfg.RanksPerNode = w.RanksPerNode()
		cfg.FileServer = w.GPUAccelerated()
		cfg.Traced = true
		tr := cluster.New(cfg).Run(w.Body(workloads.Config{Scale: 0.01})).Trace
		for name, opts := range models {
			got, err := Replay(tr, opts)
			want, refErr := referenceReplay(tr, opts)
			if err != nil || !sameReplay(got, err, want, refErr) {
				t.Errorf("%s, %s: Replay = %v (%v), reference %v (%v)", w.Name(), name, got, err, want, refErr)
			}
		}
	}
}
