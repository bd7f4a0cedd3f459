// Command scalability runs the Sec. III-B.4 strong-scaling methodology
// for one workload: trace runs across cluster sizes, fit and extrapolate
// the speedup curve, and decompose the parallel efficiency into
// eta = LB * Ser * Trf with ideal-network / ideal-load-balance replays.
// -profile and -critpath write scalability.profile.json and
// scalability.critpath.json; -critpath also prints the largest run's
// blame and what-if tables.
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
	"clustersoc/internal/critpath"
	"clustersoc/internal/obs"
	"clustersoc/internal/runflags"
)

func main() {
	var (
		workload    = flag.String("workload", "hpl", "workload to study")
		netArg      = flag.String("net", "10g", "network: 1g or 10g")
		scale       = flag.Float64("scale", 0.08, "problem scale in (0,1]")
		extrapolate = flag.Int("extrapolate", 64, "extrapolate the fitted curve to this many nodes")
		traceOut    = flag.String("trace-out", "", "write a Chrome/Perfetto trace of the largest traced run to this file")
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
	cfg := core.TX1(8, net)
	res, err := session.Scalability(cfg, *workload, sizes, *scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	runflags.Report(os.Stderr, r)
	if rf.Observers.Check {
		fmt.Fprintf(os.Stderr, "simcheck: %d scenario(s) audited — no invariant violations\n", r.Stats().Audited)
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

	// The largest traced run is already cached by Scalability, so the
	// exports below join the cache instead of re-simulating.
	largest := sizes[len(sizes)-1]
	if *traceOut != "" || rf.Observers.CritPath {
		point, err := session.ScalabilityPoint(cfg, *workload, largest, *scale)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if rf.Observers.CritPath && point.CritPath != nil {
			fmt.Printf("\ncritical-path blame at %d nodes:\n%s\n%s", largest,
				point.CritPath.BlameTable(), point.CritPath.WhatIfTable())
		}
		if *traceOut != "" {
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
	}
	if rf.Observers.Profile {
		writeSidecar("scalability.profile.json", func(f *os.File) error {
			return obs.WriteProfiles(f, r.Profiles())
		}, len(r.Profiles()), "profiles")
	}
	if rf.Observers.CritPath {
		writeSidecar("scalability.critpath.json", func(f *os.File) error {
			return critpath.WriteReports(f, r.Reports())
		}, len(r.Reports()), "critical-path reports")
	}
}

// writeSidecar creates path and fills it with write, reporting the count.
func writeSidecar(path string, write func(*os.File) error, n int, what string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := write(f); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %d %s to %s\n", n, what, path)
}
