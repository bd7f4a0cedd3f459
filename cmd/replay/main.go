// Command replay re-times a recorded execution trace under a different
// network — the Extrae -> DIMEMAS workflow of Sec. III-B.4 as a pair of
// command-line tools:
//
//	clustersim -workload tealeaf3d -trace run.trace
//	replay -in run.trace                 # summary + efficiency decomposition
//	replay -in run.trace -net ideal      # the ideal-network what-if
//	replay -in run.trace -bw 1.25e9 -lat 5e-6   # a hypothetical NIC
//	replay -in run.trace -ideal-lb       # perfectly balanced load
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"clustersoc/internal/core"
	"clustersoc/internal/dimemas"
	"clustersoc/internal/network"
	"clustersoc/internal/obs"
	"clustersoc/internal/simcheck"
	"clustersoc/internal/trace"
	"clustersoc/internal/units"
)

func main() {
	var (
		in       = flag.String("in", "", "trace file written by clustersim -trace")
		netArg   = flag.String("net", "10g", "replay network: 1g, 10g, ideal, or custom via -bw/-lat")
		bw       = flag.Float64("bw", 0, "custom bandwidth, bytes/second (overrides -net)")
		lat      = flag.Float64("lat", 0, "custom one-way latency, seconds (needs -bw)")
		check    = flag.Bool("check", false, "audit the trace with simcheck (timing sanity, per-rank ordering, send/receive matching) before replaying; violations fail the run")
		idealLB  = flag.Bool("ideal-lb", false, "rescale each phase's compute to the mean (LB = 1)")
		buses    = flag.Int("buses", 0, "DIMEMAS bus-contention limit (0 = contention-free model)")
		timeline = flag.Bool("timeline", false, "render a PARAVER-style per-rank activity view of the measured run")
		profile  = flag.Bool("profile", false, "render the trace's observability metrics (ops, compute/copy/comm-wait time, message sizes)")
		traceOut = flag.String("trace-out", "", "export the measured trace as Chrome/Perfetto trace-event JSON to this file")
	)
	flag.Parse()
	if *in == "" {
		fmt.Fprintln(os.Stderr, "replay: -in is required")
		os.Exit(2)
	}
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	usage := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "replay: "+format+"\n", args...)
		os.Exit(2)
	}
	switch {
	case *buses < 0:
		usage("-buses must be at least 0, got %d", *buses)
	case set["bw"] && !(*bw > 0 && !math.IsInf(*bw, 1)):
		usage("-bw must be a finite bandwidth above 0, got %g", *bw)
	case math.IsNaN(*lat) || math.IsInf(*lat, 0) || *lat < 0:
		usage("-lat must be a finite latency of at least 0, got %g", *lat)
	case set["lat"] && !set["bw"]:
		usage("-lat needs -bw (it sets the custom network's latency)")
	}
	var net core.NetworkChoice
	if *netArg != "ideal" {
		var err error
		if net, err = core.ParseNetwork(*netArg); err != nil {
			fmt.Fprintf(os.Stderr, "replay: -net: unknown network %q (want 1g, 10g or ideal)\n", *netArg)
			os.Exit(2)
		}
	}
	f, err := os.Open(*in)
	if err != nil {
		fmt.Fprintln(os.Stderr, "replay:", err)
		os.Exit(1)
	}
	defer f.Close()
	t, err := trace.Read(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, "replay:", err)
		os.Exit(1)
	}

	s := t.Summarize()
	fmt.Printf("trace: %d ranks, %d ops, %d messages (%s), measured runtime %s\n",
		s.Ranks, s.Ops, s.Messages, units.Bytes(s.Bytes), units.Seconds(s.Runtime))

	if *check {
		if err := simcheck.Error(simcheck.AuditTrace(t)); err != nil {
			fmt.Fprintln(os.Stderr, "replay:", err)
			os.Exit(1)
		}
		fmt.Println("simcheck: trace audited — timing, ordering, and message matching all consistent")
	}

	var model dimemas.NetworkModel
	switch {
	case *bw > 0:
		model = dimemas.NICModel(network.Profile{Name: "custom", Throughput: *bw, Latency: *lat})
	case *netArg == "ideal":
		model = dimemas.IdealNetwork
	default:
		model = dimemas.NICModel(net.Profile())
	}

	replayed, err := dimemas.Replay(t, dimemas.Options{Net: model, IdealLoadBalance: *idealLB, Buses: *buses})
	if err != nil {
		fmt.Fprintln(os.Stderr, "replay:", err)
		os.Exit(1)
	}
	fmt.Printf("replayed on %s", model.Name)
	if *buses > 0 {
		fmt.Printf(" (%d buses)", *buses)
	}
	if *idealLB {
		fmt.Print(" with ideal load balance")
	}
	fmt.Printf(": %s  (%.2fx vs measured)\n", units.Seconds(replayed), s.Runtime/replayed)

	e, err := dimemas.Decompose(t)
	if err != nil {
		fmt.Fprintln(os.Stderr, "replay:", err)
		os.Exit(1)
	}
	fmt.Printf("\nefficiency decomposition of the measured run:\n")
	fmt.Printf("  LB = %.3f   Ser = %.3f   Trf = %.3f   eta = %.3f\n", e.LB, e.Ser, e.Trf, e.Eta)

	if *timeline {
		fmt.Println()
		fmt.Print(t.Timeline(72))
	}
	if *profile {
		fmt.Println()
		fmt.Print(obs.TraceSnapshot(t).Render())
	}
	if *traceOut != "" {
		out, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "replay:", err)
			os.Exit(1)
		}
		if err := obs.WriteChromeTrace(out, t, obs.TraceSnapshot(t)); err != nil {
			fmt.Fprintln(os.Stderr, "replay:", err)
			os.Exit(1)
		}
		if err := out.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "replay:", err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote Chrome trace to %s (open in chrome://tracing or ui.perfetto.dev)\n", *traceOut)
	}
}
