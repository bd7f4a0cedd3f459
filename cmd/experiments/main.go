// Command experiments regenerates every table and figure of the paper's
// evaluation section on the simulated testbed and prints the data.
//
// The generators declare their scenarios up front and submit them to one
// shared memoized run-plane, so scenarios shared between artifacts (the
// Fig. 1 runs reappear in Fig. 3, Table II, Fig. 9, ...) simulate exactly
// once, concurrently up to -parallel workers. Output is byte-identical
// at any worker count; the run-plane accounting goes to stderr.
//
//	experiments                  # everything, default scale
//	experiments -only fig1,tab6  # a subset
//	experiments -scale 0.25     # closer to paper-sized problems
//	experiments -parallel 1      # sequential run-plane
//	experiments -check           # simcheck audit, plus the collective cost models
//	experiments -profile         # profiles sidecar, merged simulated metrics on stderr
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"clustersoc/internal/experiments"
	"clustersoc/internal/network"
	"clustersoc/internal/obs"
	"clustersoc/internal/plot"
	"clustersoc/internal/runflags"
	"clustersoc/internal/simcheck"
)

// artifactKeys is every -only selector, in presentation order.
var artifactKeys = []string{
	"tab1", "fig1", "fig2", "fig3", "fig4", "tab2", "fig5", "fig6",
	"tab3", "fig7", "tab4", "tab5", "tab6", "fig8", "tab7", "fig9",
	"fig10", "weak", "related", "faults",
}

func main() {
	var (
		scale    = flag.Float64("scale", 0.08, "problem scale in (0,1]; shapes are scale-invariant")
		only     = flag.String("only", "", "comma-separated subset: "+strings.Join(artifactKeys, ","))
		jsonPath = flag.String("json", "", "also write every generated artifact as JSON to this file")
		faultsOn = flag.Bool("faults", false, "run the fault-injection study (fault-class matrix + checkpoint-interval sweep); also reachable via -only faults")
		traceOut = flag.String("trace-out", "", "write a Chrome/Perfetto trace of a representative run (hpl @ 8 nodes, 10GbE) to this file")
		cpuProf  = flag.String("cpuprofile", "", "write a pprof CPU profile of the regeneration to this file (host profiling of the simulator itself; written on clean completion)")
		memProf  = flag.String("memprofile", "", "write a pprof heap profile at exit to this file (written on clean completion)")
		rf       = runflags.Register(flag.CommandLine, runflags.All)
	)
	flag.Parse()
	if !(*scale > 0 && *scale <= 1) {
		fmt.Fprintf(os.Stderr, "experiments: -scale must be in (0,1], got %g\n", *scale)
		os.Exit(2)
	}

	// Host-side pprof of the simulator itself — the engine's allocation
	// and event-loop cost is what these catch; the simulated metrics go
	// through -profile instead. Both are written only when the run exits
	// cleanly (error paths os.Exit past the defers).
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			runtime.GC() // materialize the final live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}()
	}

	o := experiments.DefaultOptions()
	o.Scale = *scale
	var err error
	if o.Runner, err = rf.Runner(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}

	known := map[string]bool{}
	for _, k := range artifactKeys {
		known[k] = true
	}
	want := map[string]bool{}
	if *only != "" {
		for _, k := range strings.Split(*only, ",") {
			k = strings.TrimSpace(k)
			if !known[k] {
				fmt.Fprintf(os.Stderr, "experiments: unknown -only key %q (known: %s)\n",
					k, strings.Join(artifactKeys, ","))
				os.Exit(2)
			}
			want[k] = true
		}
	}
	sel := func(keys ...string) bool {
		if len(want) == 0 {
			return true
		}
		for _, k := range keys {
			if want[k] {
				return true
			}
		}
		return false
	}

	artifacts := map[string]any{}
	keep := func(key string, v any) { artifacts[key] = v }

	section := func(title string, body func()) {
		fmt.Printf("\n===== %s =====\n", title)
		body()
	}

	if sel("tab1") {
		section("Table I: GPGPU-accelerated workloads", func() { fmt.Print(experiments.Table1()) })
	}
	if sel("fig1", "fig2") {
		section("Fig. 1 + Fig. 2: 10GbE vs 1GbE speedup and energy", func() {
			nc := experiments.Fig1(o)
			keep("fig1_fig2", nc)
			fmt.Print(nc)
			var labels []string
			var speedups, energies []float64
			for _, r := range nc.Rows {
				if r.Nodes == 8 {
					labels = append(labels, r.Workload)
					speedups = append(speedups, r.Speedup())
					energies = append(energies, r.EnergyRatio())
				}
			}
			fmt.Println()
			fmt.Print(plot.Bars("Fig. 1 @8 nodes: speedup using 10GbE vs 1GbE", labels, speedups, 40))
			fmt.Println()
			fmt.Print(plot.Bars("Fig. 2 @8 nodes: normalized energy (10GbE/1GbE; shorter is better)", labels, energies, 40))
			fmt.Printf("average speedup @8 nodes: %.2fx\n", nc.AverageSpeedup(8))
			fmt.Printf("average energy-efficiency improvement @8 nodes: %.1f%%\n", 100*nc.AverageEnergyImprovement(8))
		})
	}
	if sel("fig3") {
		section("Fig. 3: DRAM vs network traffic (8 nodes)", func() {
			tr := experiments.Fig3(o)
			keep("fig3", tr)
			fmt.Print(tr)
			c := plot.Chart{Title: "Fig. 3: per-node traffic (log-log)", XLabel: "network B/s", YLabel: "DRAM B/s",
				LogX: true, LogY: true, Width: 56, Height: 14}
			for _, net := range []string{"1GbE", "10GbE"} {
				var xs, ys []float64
				for _, p := range tr.Points {
					if p.Network == net {
						xs = append(xs, p.NetRate)
						ys = append(ys, p.DRAMRate)
					}
				}
				c.Add(plot.Series{Name: net, X: xs, Y: ys})
			}
			fmt.Println()
			fmt.Print(c.Render())
		})
	}
	if sel("fig4", "tab2") {
		section("Table II + Fig. 4: extended roofline", func() {
			rf := experiments.Table2(o)
			keep("table2_fig4", rf)
			fmt.Print(rf)
			c := plot.Chart{Title: "Fig. 4: DP roofline with measured workloads (log-log)",
				XLabel: "operational intensity FLOP/B", YLabel: "FLOP/s", LogX: true, LogY: true,
				Width: 56, Height: 14}
			var rx, ry []float64
			for _, p := range rf.Series10G {
				rx = append(rx, p.OI)
				ry = append(ry, p.Attainable)
			}
			c.Add(plot.Series{Name: "memory/compute roof", X: rx, Y: ry, Marker: '-'})
			var wx, wy []float64
			for _, r := range rf.Rows {
				if r.Network == "10GbE" && r.Workload != "alexnet" && r.Workload != "googlenet" {
					wx = append(wx, r.OI)
					wy = append(wy, r.Throughput)
				}
			}
			c.Add(plot.Series{Name: "measured workloads (10GbE)", X: wx, Y: wy, Marker: 'o'})
			fmt.Println()
			fmt.Print(c.Render())
		})
	}
	if sel("fig5") {
		section("Fig. 5: GPGPU scalability", func() {
			s5 := experiments.Fig5(o)
			keep("fig5", s5)
			fmt.Print(s5)
			fmt.Println()
			fmt.Print(scalingChart("Fig. 5: measured speedups (10GbE)", s5))
		})
	}
	if sel("fig6") {
		section("Fig. 6: NPB scalability", func() {
			s6 := experiments.Fig6(o)
			keep("fig6", s6)
			fmt.Print(s6)
			fmt.Println()
			fmt.Print(scalingChart("Fig. 6: measured speedups (10GbE)", s6))
		})
	}
	if sel("tab3") {
		section("Table III: CUDA memory-management models (jacobi)", func() {
			m := experiments.Table3(o)
			keep("table3", m)
			fmt.Print(m)
		})
	}
	if sel("fig7") {
		section("Fig. 7: hpl energy efficiency vs GPU/CPU work ratio", func() {
			wr := experiments.Fig7(o)
			keep("fig7", wr)
			fmt.Print(wr)
		})
	}
	if sel("tab4") {
		section("Table IV: CPU/GPU/collocated hpl", func() {
			c := experiments.Table4(o)
			keep("table4", c)
			fmt.Print(c)
		})
	}
	if sel("tab5") {
		section("Table V: many-core ARM server vs TX1 configuration", func() { fmt.Print(experiments.Table5()) })
	}
	if sel("tab6", "fig8") {
		section("Table VI + Fig. 8: Cavium ThunderX comparison and PLS", func() {
			cc := experiments.Table6(o)
			keep("table6_fig8", cc)
			fmt.Print(cc)
		})
	}
	if sel("tab7") {
		section("Table VII: discrete vs integrated GPGPU configuration", func() { fmt.Print(experiments.Table7()) })
	}
	if sel("fig9") {
		section("Fig. 9: TX1 cluster vs 2x GTX 980", func() {
			d := experiments.Fig9(o)
			keep("fig9", d)
			fmt.Print(d)
		})
	}
	if sel("fig10") {
		section("Fig. 10: AI workload CPU:GPU balance", func() {
			a := experiments.Fig10(o)
			keep("fig10", a)
			fmt.Print(a)
		})
	}
	if sel("related") {
		section("Extension: NPB across ARM server generations", func() {
			rw := experiments.RelatedWorkCompare(o)
			keep("related", rw)
			fmt.Print(rw)
		})
	}
	if sel("weak") {
		section("Extension: weak-scaling hpl (Tibidabo's regime)", func() {
			ws := experiments.WeakScaling(o)
			keep("weak", ws)
			fmt.Print(ws)
			fmt.Printf("weak-scaling efficiency @8 nodes: %.2f\n", ws.Efficiency())
		})
	}
	// The fault study is opt-in (-faults or -only faults): it extends the
	// paper rather than reproducing it, and keeping it out of the default
	// set keeps the default artifacts identical to the fault-free golden
	// capture.
	if *faultsOn || want["faults"] {
		section("Extension: fault injection and checkpoint-interval sweep", func() {
			fs := experiments.Faults(o)
			keep("faults", fs)
			fmt.Print(fs)
		})
	}
	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := experiments.WriteArtifactsJSON(f, artifacts); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote %d artifacts to %s\n", len(artifacts), *jsonPath)
	}
	// The traced run goes first so its profile (when -profile is on)
	// lands in the sidecar with the rest.
	if *traceOut != "" {
		writeChromeTrace(o, *traceOut)
	}
	if rf.Observers.Profile || rf.Observers.CritPath {
		// The sidecars sit next to the artifact JSON, or in the working
		// directory without -json.
		base := "experiments"
		if *jsonPath != "" {
			base = strings.TrimSuffix(*jsonPath, ".json")
		}
		fmt.Println()
		if err := rf.WriteSidecars(os.Stdout, o.Runner, base); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if rf.Observers.Profile {
		printMergedMetrics(o.Runner.Profiles())
	}

	if rf.Observers.Check {
		if err := simcheck.Error(simcheck.AuditCollectives()); err != nil {
			fmt.Fprintln(os.Stderr, "experiments: collective cost models:", err)
			os.Exit(1)
		}
	}

	runflags.Report(os.Stderr, o.Runner)
	if rf.Observers.Check {
		fmt.Fprintf(os.Stderr, "simcheck: %d scenario(s) audited, collective cost models verified — no invariant violations\n", o.Runner.Stats().Audited)
	}
}

// printMergedMetrics renders the simulated metrics merged across the
// profiled scenarios on stderr.
func printMergedMetrics(profs []*obs.Profile) {
	snaps := make([]obs.Snapshot, 0, len(profs))
	for _, p := range profs {
		snaps = append(snaps, p.Sim)
	}
	fmt.Fprintf(os.Stderr, "merged simulated metrics across %d profiled scenarios:\n", len(profs))
	fmt.Fprint(os.Stderr, obs.Merge(snaps...).Render())
}

// writeChromeTrace simulates the representative traced scenario (hpl on
// the paper's 8-node 10 GbE cluster) and exports it for chrome://tracing
// or ui.perfetto.dev. With -critpath the export carries a highlighted
// critical-path track above the per-node lanes.
func writeChromeTrace(o experiments.Options, path string) {
	sc, err := experiments.TracedScenario(o, "hpl", 8, network.TenGigE)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	res, err := o.Runner.Run(sc)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var snap obs.Snapshot
	if res.Profile != nil {
		snap = res.Profile.Sim
	} else {
		snap = obs.TraceSnapshot(res.Trace)
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var highlight []obs.PathSlice
	if res.CritPath != nil {
		highlight = res.CritPath.PathSlices()
	}
	if err := obs.WriteChromeTraceWithPath(f, res.Trace, snap, highlight); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("\nwrote Chrome trace of %s to %s (open in chrome://tracing or ui.perfetto.dev)\n", sc.Cluster.Name, path)
}

// scalingChart draws the measured speedup curves of a scalability study.
func scalingChart(title string, s *experiments.Scaling) string {
	c := plot.Chart{Title: title, XLabel: "nodes", YLabel: "speedup", Width: 56, Height: 14}
	for _, curve := range s.Curves {
		var xs, ys []float64
		for i, n := range curve.Nodes {
			xs = append(xs, float64(n))
			ys = append(ys, curve.Speedup10G(i))
		}
		c.Add(plot.Series{Name: curve.Workload, X: xs, Y: ys})
	}
	return c.Render()
}
