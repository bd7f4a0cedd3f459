package core_test

import (
	"fmt"

	"clustersoc/internal/core"
)

// Build the paper's proposed cluster and run a workload on it.
func ExampleRun() {
	spec := core.TX1(4, core.TenGigE)
	res, err := core.Run(spec, "jacobi", 0.02)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(res.System)
	fmt.Println(res.Ranks, "ranks")
	fmt.Println(res.Runtime > 0, res.Throughput > 0)
	// Output:
	// 4-node TX1 10GbE
	// 4 ranks
	// true true
}

// Place a run on the extended Roofline model (the paper's eq. 1-3).
func ExampleRooflineOf() {
	spec := core.TX1(8, core.TenGigE)
	res, err := core.Run(spec, "jacobi", 0.02)
	if err != nil {
		fmt.Println(err)
		return
	}
	a := core.RooflineOf(spec, res, false)
	fmt.Printf("OI = %.2f FLOP/B, limited by the %s roof\n", a.OI, a.Limit)
	// Output:
	// OI = 0.25 FLOP/B, limited by the operational roof
}

// The extended roofline model itself: the ridge points say where the
// memory and network roofs meet the compute roof.
func ExampleRooflineModel() {
	m := core.RooflineModel(core.TX1(8, core.TenGigE), false)
	fmt.Printf("peak %.0f GFLOPS, memory ridge OI %.2f, network ridge NI %.1f\n",
		m.PeakFlops/1e9, m.RidgeOI(), m.RidgeNI())
	// Output:
	// peak 16 GFLOPS, memory ridge OI 0.80, network ridge NI 38.7
}

// The strong-scaling methodology of Figs. 5/6 in three lines.
func ExampleScalability() {
	res, err := core.Scalability(core.TenGigE, "jacobi", []int{1, 2, 4}, 0.02)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(len(res.Speedups) == 3)
	fmt.Println(res.Speedups[0] == 1)
	fmt.Println(res.Efficiency.Eta > 0.5) // jacobi scales well
	// Output:
	// true
	// true
	// true
}
