// Command clustersim runs one workload on a configured cluster and prints
// the measurements the paper reports: runtime, throughput, power, energy
// efficiency, traffic, and counters.
//
// Examples:
//
//	clustersim -workload hpl -nodes 8 -net 10g
//	clustersim -workload ft -system cavium -scale 0.2
//	clustersim -workload googlenet -system gtx980 -nodes 2
package main

import (
	"flag"
	"fmt"
	"os"

	"clustersoc/internal/cluster"
	"clustersoc/internal/core"
	"clustersoc/internal/critpath"
	"clustersoc/internal/network"
	"clustersoc/internal/runflags"
	"clustersoc/internal/runner"
	"clustersoc/internal/soc"
	"clustersoc/internal/units"
	"clustersoc/internal/workloads"
)

func main() {
	var (
		name   = flag.String("workload", "hpl", "workload name (hpl, jacobi, cloverleaf, tealeaf2d, tealeaf3d, alexnet, googlenet, bt, cg, ep, ft, is, lu, mg, sp, hpl-cpu)")
		nodes  = flag.Int("nodes", 8, "number of nodes")
		netArg = flag.String("net", "10g", "network: 1g or 10g")
		system = flag.String("system", "tx1", "system: tx1, cavium, gtx980, xgene")
		scale  = flag.Float64("scale", 1.0, "problem scale in (0,1]")
		list   = flag.Bool("list", false, "list available workloads and exit")
		traceF = flag.String("trace", "", "write an Extrae-style execution trace to this file (replay it with cmd/replay)")
		critP  = flag.String("critpath", "", "record the causal event graph, print the blame and what-if tables, and write a critical-path sidecar to this file ('-' prints tables only; inspect sidecars with cmd/whatif)")
		rf     = runflags.Register(flag.CommandLine, runflags.Store)
	)
	flag.Parse()

	if *list {
		for _, w := range workloads.All() {
			kind := "CPU"
			if w.GPUAccelerated() {
				kind = "GPU"
			}
			fmt.Printf("%-12s %s\n", w.Name(), kind)
		}
		return
	}

	net, err := core.ParseNetwork(*netArg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "clustersim: -net:", err)
		os.Exit(2)
	}
	if (*system == "tx1" || *system == "gtx980") && *nodes < 1 {
		fmt.Fprintf(os.Stderr, "clustersim: -nodes must be at least 1, got %d\n", *nodes)
		os.Exit(2)
	}
	if !(*scale > 0 && *scale <= 1) {
		fmt.Fprintf(os.Stderr, "clustersim: -scale must be in (0,1], got %g\n", *scale)
		os.Exit(2)
	}
	w, err := workloads.ByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	var cfg cluster.Config
	switch *system {
	case "tx1":
		cfg = cluster.TX1Cluster(*nodes, net.Profile())
		cfg.RanksPerNode = w.RanksPerNode()
	case "cavium":
		// The paper runs 32 MPI processes on the 96-core server — the same
		// rank count as the 8-node TX1 cluster at 4 ranks/node.
		cfg = cluster.CaviumServer(32)
	case "gtx980":
		cfg = cluster.GTX980Cluster(*nodes)
	case "xgene":
		// The related-work server SoC: one X-Gene 1 box, 8 MPI ranks.
		cfg = cluster.Config{
			Name:         "X-Gene 1 server",
			Nodes:        1,
			NodeType:     soc.AppliedMicroXGene(),
			Network:      network.GigE,
			RanksPerNode: 8,
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown system %q\n", *system)
		os.Exit(1)
	}
	if w.GPUAccelerated() && cfg.NodeType.GPU == nil {
		fmt.Fprintf(os.Stderr, "workload %s needs a GPU; system %s has none\n", w.Name(), *system)
		os.Exit(1)
	}
	if w.GPUAccelerated() {
		cfg.FileServer = true
	}
	if *traceF != "" {
		cfg.Traced = true
	}

	// Every run goes through a one-worker runner, so a run with and
	// without -store is the same scenario: with a store, a warm entry
	// (and its stored critical-path report) decodes instead of
	// simulating.
	rf.Observers.CritPath = *critP != ""
	rn, err := rf.Runner()
	if err != nil {
		fmt.Fprintln(os.Stderr, "clustersim:", err)
		os.Exit(1)
	}
	rres, err := rn.Run(runner.Scenario{
		Cluster:  cfg,
		Workload: w.Name(),
		Config:   workloads.Config{Scale: *scale},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	runflags.Report(os.Stderr, rn)
	res, report := rres.Result, rres.CritPath

	if *traceF != "" {
		f, err := os.Create(*traceF)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := res.Trace.Write(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("trace:         %s\n", *traceF)
	}

	fmt.Printf("system:        %s\n", res.System)
	fmt.Printf("workload:      %s (scale %.2f)\n", w.Name(), *scale)
	fmt.Printf("ranks:         %d on %d node(s)\n", res.Ranks, res.Nodes)
	fmt.Printf("runtime:       %s\n", units.Seconds(res.Runtime))
	fmt.Printf("throughput:    %s\n", units.Flops(res.Throughput))
	fmt.Printf("avg power:     %.1f W\n", res.AvgPowerWatts)
	fmt.Printf("energy:        %.1f kJ\n", res.EnergyJoules/1e3)
	fmt.Printf("efficiency:    %.1f MFLOPS/W\n", res.MFLOPSPerWatt())
	fmt.Printf("network:       %s total, %s avg\n", units.Bytes(res.NetBytes), units.Rate(res.NetTrafficRate()))
	fmt.Printf("DRAM:          %s total, %s avg\n", units.Bytes(res.DRAMBytes), units.Rate(res.DRAMTrafficRate()))
	fmt.Printf("CPU busy:      %.1f core-s   GPU busy: %.1f SM-s\n", res.CPUBusySeconds, res.GPUBusySeconds)
	fmt.Printf("IPC:           %.2f   branch miss: %.2f%%   L2 miss: %.1f%%\n",
		res.PMU.IPC(), 100*res.PMU.BranchMissRatio(), 100*res.PMU.L2MissRatio())
	if res.GPU.Launches > 0 {
		fmt.Printf("GPU:           %d launches, L2 util %.2f, mem stalls %.2f\n",
			res.GPU.Launches, res.GPU.L2Utilization(), res.GPU.MemoryStallFraction())
	}
	if report != nil {
		fmt.Printf("\ncritical-path blame:\n%s\n%s", report.BlameTable(), report.WhatIfTable())
		if *critP != "-" {
			f, err := os.Create(*critP)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			if err := critpath.WriteReports(f, []*critpath.Report{report}); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("\ncritical path: %s (inspect with cmd/whatif)\n", *critP)
		}
	}
}
