package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"clustersoc/internal/cluster"
	"clustersoc/internal/experiments"
	"clustersoc/internal/mpi"
	"clustersoc/internal/network"
	"clustersoc/internal/runner"
	"clustersoc/internal/sim"
	"clustersoc/internal/workloads"
)

// layerMetrics is every per-layer metric a traced run reports, with its
// unit. A workload that does not exercise a layer reports 0 for it.
var layerMetrics = []struct{ name, unit string }{
	{"sim.schedule_ns", "ns"},
	{"sim.schedule_allocs", "count"},
	{"sim.wakeup_ns", "ns"},
	{"sim.wakeup_allocs", "count"},
	{"sim.calendar_depth_ns", "ns"},
	{"network.deliver_ns", "ns"},
	{"mpi.sendrecv_ns", "ns"},
	{"mpi.sendrecv_allocs", "count"},
	{"cluster.cg_ref_s", "s"},
	{"cluster.cg_ref_events", "count"},
	{"cluster.cg_ref_events_per_s", "1/s"},
	{"cluster.cg_ref_alloc_mb", "MB"},
	{"runner.submitted", "count"},
	{"runner.simulated", "count"},
	{"runner.memory_hits", "count"},
	{"runner.dedup_ratio", "ratio"},
	{"runner.sim_busy_s", "s"},
	{"runner.max_in_flight", "count"},
	{"runner.store_hits", "count"},
	{"runner.store_misses", "count"},
	{"runner.store_writes", "count"},
	{"runner.store_hit_ms", "ms"},
	{"runner.store_hit_traced_ms", "ms"},
	{"runner.memory_hit_us", "us"},
	{"runner.tier_memory_p50_ms", "ms"},
	{"runner.tier_memory_p99_ms", "ms"},
	{"runner.tier_store_p50_ms", "ms"},
	{"runner.tier_store_p90_ms", "ms"},
	{"store.entries", "count"},
	{"store.bytes_written", "B"},
	{"store.bytes_read", "B"},
	{"store.traced_byte_share", "ratio"},
	{"store.max_entry_mb", "MB"},
	{"store.put_mb_per_s", "MB/s"},
	{"store.get_mb_per_s", "MB/s"},
	{"store.corrupt", "count"},
	{"experiments.fig1_fig2_s", "s"},
	{"experiments.fig3_s", "s"},
	{"experiments.table2_fig4_s", "s"},
	{"experiments.fig5_s", "s"},
	{"experiments.fig6_s", "s"},
	{"experiments.table3_s", "s"},
	{"experiments.fig7_s", "s"},
	{"experiments.table4_s", "s"},
	{"experiments.table6_fig8_s", "s"},
	{"experiments.fig9_s", "s"},
	{"experiments.fig10_s", "s"},
	{"experiments.related_s", "s"},
	{"experiments.weak_s", "s"},
	{"experiments.json_s", "s"},
	{"simd.handler_p50_ms", "ms"},
	{"simd.handler_p99_ms", "ms"},
	{"simd.batch_p50_ms", "ms"},
	{"simd.resp_bytes_per_line", "B"},
	{"simd.rejected", "count"},
	{"simd.coalesced", "count"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cycles", "count"},
	{"trace.overhead_pct", "%"},
}

// reportLayer adds the layer probes to a traced run's samples and sets
// every per-layer metric of the report.
func reportLayer(c config, rep *report, layer map[string]float64) error {
	for k, v := range probeEngine() {
		layer[k] = v
	}
	for k, v := range probeCG() {
		layer[k] = v
	}
	probe, err := probeRunner(c)
	if err != nil {
		return err
	}
	for k, v := range probe {
		layer[k] = v
	}
	for _, m := range layerMetrics {
		rep.set(m.name, layer[m.name], m.unit)
	}
	return nil
}

// perOp times the call setup(n) returns, reps times after one short
// warm-up, and gives the median nanoseconds and allocations per op.
// setup builds the state outside the timed region.
func perOp(n, reps int, setup func(n int) func()) (ns, allocs float64) {
	setup(n / 10)()
	var nss, als []float64
	for i := 0; i < reps; i++ {
		run := setup(n)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		run()
		d := time.Since(start)
		runtime.ReadMemStats(&m1)
		nss = append(nss, float64(d.Nanoseconds())/float64(n))
		als = append(als, float64(m1.Mallocs-m0.Mallocs)/float64(n))
	}
	return median(nss), median(als)
}

// probeEngine measures the sim, network and mpi layers at fixed sizes.
func probeEngine() map[string]float64 {
	const reps = 5
	out := map[string]float64{}

	// A Schedule chain: each event schedules its successor, so an op is
	// one calendar push, one pop and one closure dispatch.
	out["sim.schedule_ns"], out["sim.schedule_allocs"] = perOp(200_000, reps, func(n int) func() {
		e := sim.NewEngine()
		k := 0
		var step func()
		step = func() {
			if k++; k < n {
				e.Schedule(1e-6, step)
			}
		}
		return func() { e.Schedule(1e-6, step); e.Run() }
	})

	// A Process.Sleep round trip: a typed wake-up plus two handoffs.
	out["sim.wakeup_ns"], out["sim.wakeup_allocs"] = perOp(100_000, reps, func(n int) func() {
		e := sim.NewEngine()
		e.Spawn("sleeper", func(p *sim.Process) {
			for i := 0; i < n; i++ {
				p.Sleep(1e-6)
			}
		})
		return func() { e.Run() }
	})

	// Push and pop at a standing calendar depth of 4096, the regime of
	// wide collectives.
	out["sim.calendar_depth_ns"], _ = perOp(200_000, reps, func(n int) func() {
		e := sim.NewEngine()
		calendarAtDepth(e, n, calendarDepth)
		return func() { e.Run() }
	})

	// Network.Deliver bookings cycling through all 56 ordered pairs of an
	// 8-node 10 GbE network.
	out["network.deliver_ns"], _ = perOp(560_000, reps, func(n int) func() {
		nw := network.New(sim.NewEngine(), 8, network.TenGigE)
		return func() {
			for i := 0; i < n; i++ {
				src := i % 8
				nw.Deliver(src, (src+1+(i/8)%7)%8, 64<<10)
			}
		}
	})

	// Matched Send/Recv pairs on an 8-rank ring over NewComm.
	out["mpi.sendrecv_ns"], out["mpi.sendrecv_allocs"] = perOp(80_000, reps, func(n int) func() {
		const ranks = 8
		e := sim.NewEngine()
		comm := mpi.NewComm(e, network.New(e, ranks, network.TenGigE), []int{0, 1, 2, 3, 4, 5, 6, 7})
		for rank := 0; rank < ranks; rank++ {
			e.Spawn(fmt.Sprintf("rank%d", rank), func(p *sim.Process) {
				for i := 0; i < n/ranks; i++ {
					comm.Send(p, rank, (rank+1)%ranks, 0, 4096)
					comm.Recv(p, rank, (rank+ranks-1)%ranks, 0)
				}
			})
		}
		return func() { e.Run() }
	})
	return out
}

// calendarDepth is the standing calendar depth sim.calendar_depth_ns is
// measured at.
const calendarDepth = 4096

// calendarAtDepth fills e's calendar with depth events, one per 1 ms
// slot, each of which reschedules itself one full period (depth slots)
// later until n events have fired in all (n >= depth). Every pop but the
// last depth ones is followed by one push, so the calendar stays depth
// deep until it drains, and an op is one pop plus one push.
func calendarAtDepth(e *sim.Engine, n, depth int) {
	period := float64(depth) * 1e-3
	fired := 0
	for i := 0; i < depth; i++ {
		var ev func()
		ev = func() {
			if fired++; fired <= n-depth {
				e.Schedule(period, ev)
			}
		}
		e.Schedule(float64(i)*1e-3, ev)
	}
}

// probeCG runs the cg reference scenario, cg on TX1Cluster(8, TenGigE) at
// suiteScale, straight through the cluster layer.
func probeCG() map[string]float64 {
	w, err := workloads.ByName("cg")
	if err != nil {
		panic(err) // a registry workload
	}
	var secs, allocs, rates []float64
	var events uint64
	for i := 0; i < 3; i++ {
		cfg := cluster.TX1Cluster(8, network.TenGigE)
		cfg.RanksPerNode = w.RanksPerNode()
		cl := cluster.New(cfg)
		body := w.Body(workloads.Config{Scale: suiteScale})
		meter := newAllocMeter()
		start := time.Now()
		res := cl.Run(body)
		d := time.Since(start).Seconds()
		secs = append(secs, d)
		allocs = append(allocs, meter.sample()["runtime.alloc_mb"])
		rates = append(rates, float64(res.Events)/d)
		events = res.Events
	}
	return map[string]float64{
		"cluster.cg_ref_s":            median(secs),
		"cluster.cg_ref_events":       float64(events),
		"cluster.cg_ref_events_per_s": median(rates),
		"cluster.cg_ref_alloc_mb":     median(allocs),
	}
}

// probeRunner times the runner's cache tiers on the cg reference: a store
// hit on a fresh runner for the standard and the traced entry, and a
// memory hit on a runner that already holds the result.
func probeRunner(c config) (map[string]float64, error) {
	std, err := experiments.StandardScenario("cg", 8, network.TenGigE, suiteScale)
	if err != nil {
		return nil, err
	}
	traced, err := experiments.TracedScenario(experiments.Options{Scale: suiteScale}, "cg", 8, network.TenGigE)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(c.work, "probe-runner")
	defer os.RemoveAll(dir)
	st, err := runner.OpenStore(dir)
	if err != nil {
		return nil, err
	}
	warm := runner.New(1)
	warm.SetStore(st)
	if _, err := warm.RunAll([]runner.Scenario{std, traced}); err != nil {
		return nil, err
	}

	// timeRun runs s on the runner fresh returns and checks which tier
	// answered.
	timeRun := func(s runner.Scenario, fresh func() *runner.Runner, want string) (time.Duration, error) {
		r := fresh()
		start := time.Now()
		_, out, err := r.RunTracked(s)
		d := time.Since(start)
		if err == nil && out.Source != want {
			err = fmt.Errorf("runner probe: %s answered from %s, want %s", s.Workload, out.Source, want)
		}
		return d, err
	}
	freshOverStore := func() *runner.Runner {
		r := runner.New(1)
		st, err := runner.OpenStore(dir)
		if err == nil {
			r.SetStore(st)
		}
		return r
	}
	out := map[string]float64{}
	for name, s := range map[string]runner.Scenario{"runner.store_hit_ms": std, "runner.store_hit_traced_ms": traced} {
		var ms []float64
		for i := 0; i < 7; i++ {
			d, err := timeRun(s, freshOverStore, runner.SourceStore)
			if err != nil {
				return nil, err
			}
			ms = append(ms, float64(d)/float64(time.Millisecond))
		}
		out[name] = median(ms)
	}
	var us []float64
	for i := 0; i < 1001; i++ {
		d, err := timeRun(std, func() *runner.Runner { return warm }, runner.SourceMemory)
		if err != nil {
			return nil, err
		}
		us = append(us, float64(d)/float64(time.Microsecond))
	}
	out["runner.memory_hit_us"] = median(us)
	return out, nil
}
