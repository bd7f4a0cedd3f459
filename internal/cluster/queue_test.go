package cluster_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"clustersoc/internal/cluster"
	"clustersoc/internal/critpath"
	"clustersoc/internal/cuda"
	"clustersoc/internal/faults"
	"clustersoc/internal/network"
	"clustersoc/internal/obs"
	"clustersoc/internal/soc"
	"clustersoc/internal/units"
	"clustersoc/internal/workloads"
)

// runBytes is everything a run produces that the operation queue must not
// move, each rendered as bytes.
type runBytes struct {
	result, events, blocked, trace, critpath, profile []byte
	crashes                                           uint64
}

// observedRun runs workload w on cfg with tracing, critical-path recording
// and a profile registry attached, and renders what it produced.
func observedRun(t *testing.T, w workloads.Workload, cfg cluster.Config, scale float64) (runBytes, cluster.Result) {
	t.Helper()
	cfg.Traced = true
	reg := obs.NewRegistry()
	cl := cluster.New(cfg)
	cl.Instrument(reg)
	cl.RecordCritPath()
	res := cl.Run(w.Body(workloads.Config{Scale: scale}))
	var out runBytes
	var err error
	js := func(v any) []byte {
		b, e := json.Marshal(v)
		if e != nil && err == nil {
			err = e
		}
		return b
	}
	out.result = js(res)
	out.events = []byte(fmt.Sprint(res.Events))
	out.blocked = js(cluster.RankBlocked(cl))
	var tr bytes.Buffer
	if e := res.Trace.Write(&tr); e != nil {
		t.Fatal(e)
	}
	out.trace = tr.Bytes()
	out.critpath = js(critpath.Analyze(cl.CritPath(), w.Name(), cfg.Fingerprint(), res.Runtime))
	out.profile = js(reg.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults != nil {
		out.crashes = res.Faults.Crashes
	}
	return out, res
}

// sameRun fails the test on the first output the two runs disagree on.
func sameRun(t *testing.T, name string, got, want runBytes) {
	t.Helper()
	for _, c := range []struct {
		what      string
		got, want []byte
	}{
		{"Result JSON", got.result, want.result},
		{"Events", got.events, want.events},
		{"per-rank BlockedSeconds", got.blocked, want.blocked},
		{"trace bytes", got.trace, want.trace},
		{"critpath report", got.critpath, want.critpath},
		{"profile Sim snapshot", got.profile, want.profile},
	} {
		if !bytes.Equal(c.got, c.want) {
			t.Errorf("%s: %s differs between queue capacity 32 and 1", name, c.what)
		}
	}
}

// A queue of one runs every operation alone, as the body calls it: the
// reference. The default queue must reproduce its every output byte, on
// every registry workload, with and without faults.
func TestQueuedRunsMatchOneOpAtATime(t *testing.T) {
	const scale = 0.02
	type scenario struct {
		name string
		w    workloads.Workload
		cfg  cluster.Config
	}
	var scenarios []scenario
	for _, w := range workloads.All() {
		for _, n := range []int{1, 2, 8} {
			for _, prof := range []network.Profile{network.GigE, network.TenGigE} {
				cfg := cluster.TX1Cluster(n, prof)
				cfg.RanksPerNode = w.RanksPerNode()
				cfg.FileServer = true
				scenarios = append(scenarios, scenario{fmt.Sprintf("%s/%d/%s", w.Name(), n, prof.Name), w, cfg})
			}
		}
	}
	run := func(s scenario) runBytes {
		out, _ := observedRun(t, s.w, s.cfg, scale)
		return out
	}
	queued := make([]runBytes, len(scenarios))
	runtimes := map[string]float64{}
	for i, s := range scenarios {
		var res cluster.Result
		queued[i], res = observedRun(t, s.w, s.cfg, scale)
		if s.cfg.Nodes == 8 && s.cfg.Network.Name == network.TenGigE.Name {
			runtimes[s.w.Name()] = res.Runtime
		}
	}
	// Every fault class at once, scaled to each workload's own runtime,
	// so crash settlements and checkpoint writes wait inside the step.
	var faulted []scenario
	for _, w := range workloads.All() {
		T := runtimes[w.Name()]
		cfg := cluster.TX1Cluster(8, network.TenGigE)
		cfg.RanksPerNode = w.RanksPerNode()
		cfg.FileServer = true
		cfg.Faults = &faults.Plan{
			Seed:              3,
			StragglerFraction: 0.5, StragglerFactor: 1.5,
			DerateFraction: 0.25, LinkDerate: 0.5,
			FlapMTBF: T / 5, FlapSeconds: T / 200,
			MessageLossProb: 0.05,
			CrashMTBF:       T / 2, RestartSeconds: T / 40,
			CheckpointInterval: T / 10, CheckpointSeconds: T / 200, CheckpointBandwidth: 1e9,
		}
		faulted = append(faulted, scenario{w.Name() + "/faults", w, cfg})
	}
	faultedQueued := make([]runBytes, len(faulted))
	for i, s := range faulted {
		faultedQueued[i] = run(s)
	}

	defer cluster.SetQueueCap(1)()
	for i, s := range scenarios {
		sameRun(t, s.name, queued[i], run(s))
	}
	settled := 0
	for i, s := range faulted {
		ref := run(s)
		sameRun(t, s.name, faultedQueued[i], ref)
		if ref.crashes > 0 && (s.w.Name() == "hpl" || s.w.Name() == "jacobi") {
			settled++
		}
	}
	if settled != 2 {
		t.Errorf("%d of hpl and jacobi settled a crash at a checkpoint; the fault plan must exercise both", settled)
	}
}

// A body reading Now after an operation sees the time that operation
// completed, as it would at a queue of one.
func TestNowAfterEachOpMatchesOneOpAtATime(t *testing.T) {
	body := func(times *[]float64) func(ctx *cluster.Context) {
		return func(ctx *cluster.Context) {
			mark := func() { *times = append(*times, ctx.Now()) }
			ctx.Compute(soc.CPUWork{Instr: 1e8, MemAccesses: 1e7, L1MissRate: 0.05, WorkingSet: 1e7, Bytes: 1e7})
			mark()
			ctx.Sendrecv((ctx.Rank+1)%ctx.Size(), (ctx.Rank+ctx.Size()-1)%ctx.Size(), 3, 1e6, 1e6)
			mark()
			ctx.Kernel(cuda.Kernel{Name: "k", FLOPs: 1e9, Bytes: 1e8, L2HitRatio: 0.3})
			mark()
			ctx.CopyIn(1e7)
			mark()
			ctx.Fetch(1e6)
			mark()
			g := ctx.KernelAsync(cuda.Kernel{Name: "a", FLOPs: 1e9, Bytes: 1e8})
			ctx.Compute(soc.CPUWork{Instr: 1e6})
			ctx.WaitKernel(g)
			mark()
		}
	}
	run := func() []float64 {
		cfg := cluster.TX1Cluster(2, network.TenGigE)
		cfg.FileServer = true
		var rank0 []float64
		cl := cluster.New(cfg)
		cl.Spawn(func(ctx *cluster.Context) {
			var times []float64
			body(&times)(ctx)
			if ctx.Rank == 0 {
				rank0 = times
			}
		})
		cl.Finish()
		return rank0
	}
	queued := run()
	restore := cluster.SetQueueCap(1)
	alone := run()
	restore()
	if len(queued) != 6 || fmt.Sprint(queued) != fmt.Sprint(alone) {
		t.Fatalf("Now after each op: queued %v, one at a time %v", queued, alone)
	}
	for i := 1; i < len(queued); i++ {
		if !(queued[i] > queued[i-1]) {
			t.Fatalf("Now did not advance past op %d: %v", i, queued)
		}
	}
}

// A rank is switched in once at its first activation and once per flush:
// a body of 100 Computes flushes at 32, 64, 96 and at its return.
func TestHundredComputesSwitchInFiveTimes(t *testing.T) {
	cl := cluster.New(cluster.TX1Cluster(1, network.GigE))
	cl.Run(func(ctx *cluster.Context) {
		for i := 0; i < 100; i++ {
			ctx.Compute(soc.CPUWork{Instr: 1e6})
		}
	})
	if got, want := cl.Eng.Switches(), uint64(math.Ceil(100.0/32)+1); got != want {
		t.Fatalf("Switches() = %d, want %d", got, want)
	}
}

// An async kernel's helper runs on the event loop: the only switches are
// the rank's activation and its one flush.
func TestAsyncKernelHelperIsNeverSwitchedIn(t *testing.T) {
	for _, critPath := range []bool{false, true} {
		cl := cluster.New(cluster.TX1Cluster(1, network.GigE))
		if critPath {
			cl.RecordCritPath()
		}
		cl.Run(func(ctx *cluster.Context) {
			g := ctx.KernelAsync(cuda.Kernel{Name: "k", FLOPs: 1e9, Bytes: 1 * units.MB})
			ctx.WaitKernel(g)
		})
		if got := cl.Eng.Switches(); got != 2 {
			t.Fatalf("critpath %v: Switches() = %d, want 2 (the rank's activation and its flush)", critPath, got)
		}
	}
}

// The cg reference (TX1Cluster(8, TenGigE), scale 0.05) switches its 32
// ranks in 448 times over its 62,812 events; a switch per operation would
// be 12,864.
func TestCGReferenceSwitches(t *testing.T) {
	w, err := workloads.ByName("cg")
	if err != nil {
		t.Fatal(err)
	}
	cfg := cluster.TX1Cluster(8, network.TenGigE)
	cfg.RanksPerNode = w.RanksPerNode()
	cl := cluster.New(cfg)
	res := cl.Run(w.Body(workloads.Config{Scale: 0.05}))
	if res.Events != 62812 || cl.Eng.Switches() != 448 {
		t.Fatalf("events %d, switches %d; want 62812 and 448", res.Events, cl.Eng.Switches())
	}
}
