// Strong-scaling study (Sec. III-B.4 / Figs. 5-6): trace a workload
// across cluster sizes, fit and extrapolate its speedup curve, and
// decompose the parallel efficiency into eta = LB * Ser * Trf with
// DIMEMAS-style ideal-network and ideal-load-balance replays.
//
//	go run ./examples/scaling
package main

import (
	"fmt"
	"log"

	"clustersoc/internal/core"
)

func main() {
	const scale = 0.05
	sizes := []int{1, 2, 4, 6, 8}

	fmt.Println("strong scaling on the 10 GbE TX1 cluster")
	fmt.Printf("%-11s %8s %8s %8s | %6s %6s %6s | %9s %9s\n",
		"workload", "S(4)", "S(8)", "S(64)*", "LB", "Ser", "Trf", "idealNet", "idealLB")

	for _, w := range []string{"hpl", "jacobi", "cloverleaf", "tealeaf2d", "tealeaf3d", "ft", "cg", "mg"} {
		res, err := core.Scalability(core.TenGigE, w, sizes, scale)
		if err != nil {
			log.Fatal(err)
		}
		e := res.Efficiency
		fmt.Printf("%-11s %8.2f %8.2f %8.2f | %6.2f %6.2f %6.2f | %8.2fx %8.2fx\n",
			w, res.Speedups[2], res.Speedups[4], res.Fit.Speedup(64),
			e.LB, e.Ser, e.Trf,
			res.IdealNetworkGain, res.IdealLoadBalanceGain)
	}

	fmt.Println("\n* fitted T(P) = a + b/P + c ln P extrapolation (Fig. 5/6 dashed curves)")
	fmt.Println("Reading the decomposition: Trf < 1 blames the interconnect (ft, tealeaf3d),")
	fmt.Println("LB < 1 blames uneven work (cg), Ser < 1 blames dependency chains (hpl's")
	fmt.Println("panel factorization, lu's wavefront).")
}
