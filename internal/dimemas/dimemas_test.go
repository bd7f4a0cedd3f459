package dimemas

import (
	"math"
	"strings"
	"testing"

	"clustersoc/internal/mpi"
	"clustersoc/internal/network"
	"clustersoc/internal/sim"
	"clustersoc/internal/trace"
	"clustersoc/internal/units"
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
	replayed := mustReplay(t, tr, Options{Net: NetworkModel{
		Name:           "1GbE",
		Bandwidth:      network.GigE.Throughput,
		Latency:        network.GigE.Latency,
		IntraBandwidth: network.MemoryPathBandwidth,
		IntraLatency:   network.MemoryPathLatency,
	}})
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
	real := NetworkModel{
		Name:           "10GbE",
		Bandwidth:      network.TenGigE.Throughput,
		Latency:        network.TenGigE.Latency,
		IntraBandwidth: network.MemoryPathBandwidth,
		IntraLatency:   network.MemoryPathLatency,
	}
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

func TestPhaseChopping(t *testing.T) {
	tr := traceRun(3, network.TenGigE, ringWorkload(0.01, 4, 1000, balanced))
	phases := tr.Phases()
	// 4 phase markers => 5 entries (last is the empty tail).
	if len(phases) != 5 {
		t.Fatalf("got %d phases, want 5", len(phases))
	}
	for ph := 0; ph < 4; ph++ {
		for r, v := range phases[ph] {
			if math.Abs(v-0.01) > 1e-9 {
				t.Fatalf("phase %d rank %d compute = %v, want 0.01", ph, r, v)
			}
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
	net := NetworkModel{
		Name:           "1GbE",
		Bandwidth:      network.GigE.Throughput,
		Latency:        network.GigE.Latency,
		IntraBandwidth: network.MemoryPathBandwidth,
		IntraLatency:   network.MemoryPathLatency,
	}
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
