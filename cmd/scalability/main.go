// Command scalability runs the Sec. III-B.4 strong-scaling methodology
// for one workload: trace runs across cluster sizes, fit and extrapolate
// the speedup curve, and decompose the parallel efficiency into
// eta = LB * Ser * Trf with ideal-network / ideal-load-balance replays.
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
	"clustersoc/internal/runner"
)

func main() {
	var (
		workload    = flag.String("workload", "hpl", "workload to study")
		netArg      = flag.String("net", "10g", "network: 1g or 10g")
		scale       = flag.Float64("scale", 0.08, "problem scale")
		extrapolate = flag.Int("extrapolate", 64, "extrapolate the fitted curve to this many nodes")
		parallel    = flag.Int("parallel", 0, "max concurrent simulations (0 = GOMAXPROCS, 1 = sequential)")
		check       = flag.Bool("check", false, "audit every simulated scenario with simcheck; violations fail the run")
		profile     = flag.Bool("profile", false, "collect per-scenario observability profiles and write a scalability.profile.json sidecar")
		critPath    = flag.Bool("critpath", false, "record causal event graphs, print the largest run's blame table, and write a scalability.critpath.json sidecar (inspect with cmd/whatif)")
		traceOut    = flag.String("trace-out", "", "write a Chrome/Perfetto trace of the largest traced run to this file")
		storeDir    = flag.String("store", os.Getenv("CLUSTERSOC_STORE"), "persistent content-addressed result store directory (default $CLUSTERSOC_STORE): warm entries decode instead of re-simulating")
	)
	flag.Parse()

	net, err := core.ParseNetwork(*netArg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scalability: -net:", err)
		os.Exit(2)
	}
	sizes := []int{1, 2, 4, 6, 8}
	session := core.NewSession(*parallel)
	session.SetChecking(*check)
	session.SetProfiling(*profile)
	session.SetCritPath(*critPath)
	if *storeDir != "" {
		st, err := runner.OpenStore(*storeDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		session.SetStore(st)
	}
	cfg := core.TX1(8, net)
	res, err := session.Scalability(cfg, *workload, sizes, *scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	st := session.Stats()
	fmt.Fprintf(os.Stderr, "run-plane: %d scenarios submitted, %d simulated, %d duplicates served from cache (%d workers, peak %d in flight, %.1fs simulation wall)\n",
		st.Submitted, st.Simulated, st.Hits, session.Runner().Workers(), st.MaxInFlight, st.WallSeconds)
	if ps := session.Runner().Store(); ps != nil {
		fmt.Fprintf(os.Stderr, "store: %d hits, %d misses, %d writes, %d corrupt (%s, schema %d)\n",
			st.StoreHits, st.StoreMisses, st.StoreWrites, st.StoreCorrupt, ps.Dir(), ps.Schema())
	}
	if *check {
		fmt.Fprintf(os.Stderr, "simcheck: %d scenario(s) audited — no invariant violations\n", st.Audited)
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
	if *traceOut != "" || *critPath {
		point, err := session.ScalabilityPoint(cfg, *workload, largest, *scale)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if *critPath && point.CritPath != nil {
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
	if *profile {
		writeSidecar("scalability.profile.json", func(f *os.File) error {
			return obs.WriteProfiles(f, session.Profiles())
		}, len(session.Profiles()), "profiles")
	}
	if *critPath {
		writeSidecar("scalability.critpath.json", func(f *os.File) error {
			return critpath.WriteReports(f, session.CritPathReports())
		}, len(session.CritPathReports()), "critical-path reports")
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
