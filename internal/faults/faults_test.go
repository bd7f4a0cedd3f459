package faults

import (
	"math"
	"testing"

	"clustersoc/internal/network"
	"clustersoc/internal/sim"
)

func TestZeroPlanInjectsNothing(t *testing.T) {
	var nilPlan *Plan
	if nilPlan.Enabled() || nilPlan.LosesMessages() {
		t.Fatal("nil plan reports enabled")
	}
	if (&Plan{}).Enabled() {
		t.Fatal("zero plan reports enabled")
	}
	// A seed alone enables nothing: the seed only selects the universe.
	if (&Plan{Seed: 99}).Enabled() {
		t.Fatal("seed-only plan reports enabled")
	}
	// Degenerate knob values must not enable their class.
	for _, p := range []Plan{
		{StragglerFraction: 0.5},                     // no factor
		{StragglerFraction: 0.5, StragglerFactor: 1}, // factor 1 = healthy
		{DerateFraction: 0.5},                        // no derate level
		{DerateFraction: 0.5, LinkDerate: 1},         // full rate = healthy
	} {
		if p.Enabled() {
			t.Fatalf("degenerate plan %+v reports enabled", p)
		}
	}
	if !(&Plan{StragglerFraction: 0.5, StragglerFactor: 1.5}).Enabled() {
		t.Fatal("straggler plan reports disabled")
	}
	if !(&Plan{MessageLossProb: 0.1}).LosesMessages() {
		t.Fatal("lossy plan reports lossless")
	}
}

func TestOptimalInterval(t *testing.T) {
	// Young/Daly: sqrt(2 * C * MTBF).
	if got, want := OptimalInterval(2, 100), 20.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("OptimalInterval(2, 100) = %v, want %v", got, want)
	}
	if got := OptimalInterval(0, 100); got != 0 {
		t.Fatalf("free checkpoints should give interval 0 (checkpoint always), got %v", got)
	}
}

func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	if f := in.ComputeFactor(3); f != 1 {
		t.Fatalf("nil injector compute factor = %v, want 1", f)
	}
	if in.Lose(0, 1, 100) {
		t.Fatal("nil injector loses messages")
	}
	if s := in.Stats(); s != (Stats{}) {
		t.Fatalf("nil injector stats = %+v, want zero", s)
	}
	// Checkpoint on a nil injector must not touch the process.
	e := sim.NewEngine()
	e.Spawn("rank", func(p *sim.Process) {
		var st RankState
		checkpoint(in, p, 0, &st, 1e6)
		if p.Now() != 0 {
			t.Error("nil injector Checkpoint advanced time")
		}
	})
	e.Run()
}

// Two injectors from the same plan draw identical static choices and
// identical dynamic sequences; a different seed redraws them.
func TestInjectorDeterminism(t *testing.T) {
	plan := Plan{
		Seed:              7,
		StragglerFraction: 0.5, StragglerFactor: 2,
		DerateFraction: 0.5, LinkDerate: 0.3,
		MessageLossProb: 0.3,
	}
	mk := func(p Plan) *Injector {
		e := sim.NewEngine()
		return NewInjector(p, e, network.New(e, 8, network.GigE), 8)
	}
	a, b := mk(plan), mk(plan)
	for n := 0; n < 8; n++ {
		if a.ComputeFactor(n) != b.ComputeFactor(n) {
			t.Fatalf("node %d compute factor differs between identical plans", n)
		}
	}
	for i := 0; i < 100; i++ {
		if a.Lose(0, 1, 100) != b.Lose(0, 1, 100) {
			t.Fatalf("loss draw %d differs between identical plans", i)
		}
	}
	// A different seed must (for this configuration) give a different
	// universe — check the loss sequence, the highest-entropy stream.
	c := mk(Plan{Seed: 8, MessageLossProb: 0.3})
	diff := false
	for i := 0; i < 100; i++ {
		x := a.Lose(0, 1, 100)
		if c.Lose(0, 1, 100) != x {
			diff = true
		}
	}
	if !diff {
		t.Fatal("seeds 7 and 8 produced identical loss sequences")
	}
}

// Straggler and derate coins are drawn per node in node order, so the set
// of afflicted nodes is a pure function of (seed, node count) — and the
// observed fractions track the plan over many nodes.
func TestStaticDrawFractions(t *testing.T) {
	plan := Plan{Seed: 3, StragglerFraction: 0.25, StragglerFactor: 1.5}
	e := sim.NewEngine()
	in := NewInjector(plan, e, network.New(e, 512, network.GigE), 512)
	n := in.Stats().StragglerNodes
	if n < 90 || n > 170 {
		t.Fatalf("512 nodes at fraction 0.25 drew %d stragglers — far off the mean of 128", n)
	}
	for i := 0; i < 512; i++ {
		f := in.ComputeFactor(i)
		if f != 1 && f != 1.5 {
			t.Fatalf("node %d compute factor %v, want 1 or 1.5", i, f)
		}
	}
}

// The crash settlement: a rank that did w productive seconds before its
// node's crash pays restart + w, telescoping — the penalty time itself is
// not re-paid at the next settlement.
func TestCrashSettlementTelescopes(t *testing.T) {
	const (
		mtbf    = 5.0
		restart = 1.0
	)
	plan := Plan{Seed: 1, CrashMTBF: mtbf, RestartSeconds: restart}
	e := sim.NewEngine()
	in := NewInjector(plan, e, network.New(e, 1, network.GigE), 1)

	// Materialize the node's first crash time to aim the test at it.
	in.crash[0].ensureUntil(0, mtbf, restart)
	c0 := in.crash[0].times[0]

	var afterFirst, afterSecond float64
	e.Spawn("rank", func(p *sim.Process) {
		var st RankState
		p.Sleep(c0 + 0.5) // work past the crash
		checkpoint(in, p, 0, &st, 0)
		afterFirst = p.Now()
		// The settlement slept restart + (c0 + 0.5) of rework; none of that
		// penalty counts as work, so an immediate second hook pays nothing.
		checkpoint(in, p, 0, &st, 0)
		afterSecond = p.Now()
	})
	e.Run()

	wantFirst := (c0 + 0.5) + restart + (c0 + 0.5)
	if math.Abs(afterFirst-wantFirst) > 1e-9 {
		t.Fatalf("first settlement ended at %v, want %v (restart + rework of all prior work)", afterFirst, wantFirst)
	}
	if afterSecond != afterFirst {
		t.Fatalf("second hook advanced time to %v from %v — penalty time was re-counted as work", afterSecond, afterFirst)
	}
	st := in.Stats()
	if st.Crashes != 1 {
		t.Fatalf("crashes = %d, want 1", st.Crashes)
	}
	if math.Abs(st.ReworkSeconds-(c0+0.5)) > 1e-9 {
		t.Fatalf("rework = %v, want %v", st.ReworkSeconds, c0+0.5)
	}
	if math.Abs(st.CrashOutageSeconds-restart) > 1e-9 {
		t.Fatalf("outage = %v, want %v", st.CrashOutageSeconds, restart)
	}
}

// A checkpoint caps the rework of a later crash at the work done since the
// checkpoint, and checkpoints fire on accumulated productive work, not on
// every hook.
func TestCheckpointLimitsRework(t *testing.T) {
	const (
		mtbf     = 1e9 // no crash interferes
		restart  = 1.0
		interval = 2.0
		cost     = 0.25
	)
	plan := Plan{
		Seed: 1, CrashMTBF: mtbf, RestartSeconds: restart,
		CheckpointInterval: interval, CheckpointSeconds: cost,
		CheckpointBandwidth: 1e6,
	}
	e := sim.NewEngine()
	in := NewInjector(plan, e, network.New(e, 1, network.GigE), 1)
	e.Spawn("rank", func(p *sim.Process) {
		var st RankState
		p.Sleep(1.0)
		checkpoint(in, p, 0, &st, 5e5) // 1s of work < interval: no checkpoint
		if got := in.Stats().Checkpoints; got != 0 {
			t.Errorf("checkpointed after 1s of work with a 2s interval (%d)", got)
		}
		p.Sleep(1.5)
		checkpoint(in, p, 0, &st, 5e5) // 2.5s accumulated: checkpoint
	})
	e.Run()
	st := in.Stats()
	if st.Checkpoints != 1 {
		t.Fatalf("checkpoints = %d, want 1", st.Checkpoints)
	}
	// Cost = CheckpointSeconds + stateBytes/bandwidth = 0.25 + 0.5.
	if want := cost + 5e5/1e6; math.Abs(st.CheckpointOverheadSeconds-want) > 1e-9 {
		t.Fatalf("checkpoint overhead = %v, want %v", st.CheckpointOverheadSeconds, want)
	}
}

// Crash times strictly increase and are separated by at least the restart
// outage, so settlement loops terminate.
func TestCrashTimesStrictlyIncrease(t *testing.T) {
	nc := nodeCrash{stream: sim.NewStream(5, "faults/crash/0")}
	nc.ensureUntil(100, 2.0, 0.5)
	if len(nc.times) < 10 {
		t.Fatalf("only %d crashes in 100s at MTBF 2", len(nc.times))
	}
	prev := 0.0
	for i, c := range nc.times {
		if c-prev < 0.5 {
			t.Fatalf("crash %d at %v within the restart outage of its predecessor at %v", i, c, prev)
		}
		prev = c
	}
}

// Flap windows are strictly ordered and non-overlapping.
func TestFlapSourceOrdered(t *testing.T) {
	fs := &flapSource{s: sim.NewStream(9, "faults/flap/0"), mtbf: 1, dur: 0.1}
	prevEnd := 0.0
	for i := 0; i < 1000; i++ {
		s, en := fs.Next()
		if s < prevEnd || en <= s {
			t.Fatalf("window %d [%v, %v) overlaps previous end %v or is empty", i, s, en, prevEnd)
		}
		prevEnd = en
	}
}

// checkpoint runs the Checkpoint hook to completion as p's Await step, the
// way cluster.Context runs it.
func checkpoint(in *Injector, p *sim.Process, node int, st *RankState, stateBytes float64) {
	p.Await(func() bool { return in.Checkpoint(p, node, st, stateBytes) })
}
