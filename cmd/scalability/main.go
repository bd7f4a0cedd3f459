// Command scalability runs the Sec. III-B.4 strong-scaling methodology
// for one workload: runs across TX1 cluster sizes, fit and extrapolate
// the speedup curve, and decompose the parallel efficiency into
// eta = LB * Ser * Trf with ideal-network / ideal-load-balance replays.
// Its runs are the Replay scenarios of the Fig. 5/6 generators, so over
// a store cmd/experiments warmed it simulates nothing. -profile and
// -critpath write scalability.profile.json and scalability.critpath.json;
// -critpath also prints the largest run's blame and what-if tables.
// -trace-out simulates the largest run once more, traced, for export.
//
//	scalability -workload tealeaf3d
//	scalability -workload ft -net 1g -extrapolate 128
//	scalability -workload cg -critpath -trace-out cg.trace.json
package main

import (
	"flag"
	"fmt"
	"os"

	"clustersoc/internal/core"
	"clustersoc/internal/obs"
	"clustersoc/internal/runflags"
)

func main() {
	var (
		workload    = flag.String("workload", "hpl", "workload to study")
		netArg      = flag.String("net", "10g", "network: 1g or 10g")
		scale       = flag.Float64("scale", 0.08, "problem scale in (0,1]")
		extrapolate = flag.Int("extrapolate", 64, "extrapolate the fitted curve to this many nodes")
		traceOut    = flag.String("trace-out", "", "write a Chrome/Perfetto trace of the largest run, simulated once more with tracing, to this file")
		rf          = runflags.Register(flag.CommandLine, runflags.All)
	)
	flag.Parse()

	net, err := core.ParseNetwork(*netArg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scalability: -net:", err)
		os.Exit(2)
	}
	if !(*scale > 0 && *scale <= 1) {
		fmt.Fprintf(os.Stderr, "scalability: -scale must be in (0,1], got %g\n", *scale)
		os.Exit(2)
	}
	if *extrapolate < 1 {
		fmt.Fprintf(os.Stderr, "scalability: -extrapolate must be at least 1, got %d\n", *extrapolate)
		os.Exit(2)
	}
	r, err := rf.Runner()
	if err != nil {
		fmt.Fprintln(os.Stderr, "scalability:", err)
		os.Exit(1)
	}
	sizes := []int{1, 2, 4, 6, 8}
	session := core.NewSessionWith(r)
	res, err := session.Scalability(net, *workload, sizes, *scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("strong scaling of %s on the TX1 cluster (%s)\n\n", *workload, *netArg)
	fmt.Println("  nodes   runtime(s)   speedup")
	for i, n := range res.Nodes {
		fmt.Printf("  %5d   %10.3f   %7.2f\n", n, res.Runtimes[i], res.Speedups[i])
	}
	fmt.Printf("\nfit: T(P) = %.3g + %.3g/P + %.3g ln P   (r2 = %.3f)\n",
		res.Fit.A, res.Fit.B, res.Fit.C, res.Fit.R2)
	fmt.Println("\n  extrapolated speedups:")
	for _, p := range []int{8, 16, 32, *extrapolate} {
		fmt.Printf("  %5d nodes: %6.2f\n", p, res.Fit.Speedup(p))
	}
	e := res.Efficiency
	fmt.Printf("\nefficiency decomposition at 8 nodes (eta = LB x Ser x Trf):\n")
	fmt.Printf("  LB  (load balance)   %.3f\n", e.LB)
	fmt.Printf("  Ser (serialization)  %.3f\n", e.Ser)
	fmt.Printf("  Trf (data transfer)  %.3f\n", e.Trf)
	fmt.Printf("  eta                  %.3f\n", e.Eta)
	fmt.Printf("\nwhat-if replays at 8 nodes:\n")
	fmt.Printf("  ideal network would speed the run up %.2fx\n", res.IdealNetworkGain)
	fmt.Printf("  ideal load balance would speed it up %.2fx\n", res.IdealLoadBalanceGain)

	largest := sizes[len(sizes)-1]
	if res.CritPath != nil {
		fmt.Printf("\ncritical-path blame at %d nodes:\n%s\n%s", largest,
			res.CritPath.BlameTable(), res.CritPath.WhatIfTable())
	}
	// No Replay result keeps its trace, so the export simulates the
	// largest run once more, traced.
	if *traceOut != "" {
		point, err := session.ScalabilityPoint(net, *workload, largest, *scale)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		var path []obs.PathSlice
		if point.CritPath != nil {
			path = point.CritPath.PathSlices()
		}
		if err := obs.WriteChromeTraceWithPath(f, point.Trace, obs.TraceSnapshot(point.Trace), path); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote Chrome trace of the %d-node run to %s (open in chrome://tracing or ui.perfetto.dev)\n", largest, *traceOut)
	}
	if err := rf.WriteSidecars(os.Stdout, r, "scalability"); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	runflags.Report(os.Stderr, r)
	if rf.Observers.Check {
		fmt.Fprintf(os.Stderr, "simcheck: %d scenario(s) audited — no invariant violations\n", r.Stats().Audited)
	}
}
