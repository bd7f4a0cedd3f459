// Command roofline prints the extended Roofline model (Sec. III-B.3) for
// a system: the memory/compute roof series for plotting and, optionally,
// the placement of a measured workload or of the host machine's own
// calibration kernels.
//
//	roofline -net 10g
//	roofline -net 1g -workload tealeaf3d -nodes 8
//	roofline -host    # time the host's kernels
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"clustersoc/internal/core"
	"clustersoc/internal/perf"
	"clustersoc/internal/units"
)

func main() {
	var (
		netArg   = flag.String("net", "10g", "network: 1g or 10g")
		workload = flag.String("workload", "", "optionally place a workload on the roofline")
		nodes    = flag.Int("nodes", 8, "cluster size for the workload run")
		scale    = flag.Float64("scale", 0.08, "problem scale")
		points   = flag.Int("points", 24, "samples of the roof curve")
		host     = flag.Bool("host", false, "time the calibration kernels on this machine and print their measured rates")
		hostN    = flag.Int("host-n", 512, "problem order for -host kernels (GEMM n, n*n vectors and grid)")
	)
	flag.Parse()

	net, err := core.ParseNetwork(*netArg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "roofline: -net:", err)
		os.Exit(2)
	}
	if *nodes < 1 {
		fmt.Fprintf(os.Stderr, "roofline: -nodes must be at least 1, got %d\n", *nodes)
		os.Exit(2)
	}
	if !(*scale > 0 && *scale <= 1) {
		fmt.Fprintf(os.Stderr, "roofline: -scale must be in (0,1], got %g\n", *scale)
		os.Exit(2)
	}
	if *points < 2 {
		fmt.Fprintf(os.Stderr, "roofline: -points must be at least 2, got %d\n", *points)
		os.Exit(2)
	}
	if *hostN < 1 {
		fmt.Fprintf(os.Stderr, "roofline: -host-n must be at least 1, got %d\n", *hostN)
		os.Exit(2)
	}
	cfg := core.TX1(*nodes, net)
	single := *workload == "alexnet" || *workload == "googlenet"
	m := core.RooflineModel(cfg, single)

	fmt.Printf("extended roofline: %s\n", m.Name)
	fmt.Printf("  peak:            %s\n", units.Flops(m.PeakFlops))
	fmt.Printf("  memory roof:     %s (ridge OI %.2f FLOP/B)\n", units.Rate(m.MemBandwidth), m.RidgeOI())
	fmt.Printf("  network roof:    %s (ridge NI %.1f FLOP/B)\n", units.Rate(m.NetBandwidth), m.RidgeNI())
	fmt.Println("\n  OI (FLOP/B)   attainable")
	for _, p := range m.MemorySeries(0.01, 100, *points) {
		fmt.Printf("  %10.3f   %s\n", p.OI, units.Flops(p.Attainable))
	}

	if *host {
		fmt.Printf("\nhost calibration (n=%d, best of 3):\n", *hostN)
		fmt.Println("  kernel     OI (FLOP/B)   measured")
		for _, k := range perf.MeasureHostKernels(*hostN, 3) {
			fmt.Printf("  %-8s %10.3f   %s\n", k.Name, k.OI(), units.Flops(k.FlopRate()))
		}
	}

	if *workload == "" {
		return
	}
	res, err := core.Run(cfg, *workload, *scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	a := core.RooflineOf(cfg, res, single)
	ni := "inf"
	if !math.IsInf(a.NI, 1) {
		ni = fmt.Sprintf("%.1f", a.NI)
	}
	fmt.Printf("\nworkload %s on %d node(s):\n", *workload, *nodes)
	fmt.Printf("  operational intensity: %.2f FLOP/B\n", a.OI)
	fmt.Printf("  network intensity:     %s FLOP/B\n", ni)
	fmt.Printf("  throughput:            %s/node\n", units.Flops(a.Throughput))
	fmt.Printf("  attainable peak:       %s/node\n", units.Flops(a.Peak))
	fmt.Printf("  percent of peak:       %.1f%%\n", a.PercentOfPeak)
	fmt.Printf("  limiting factor:       %s\n", a.Limit)
}
