// Command netbench runs the two network micro-benchmarks the paper uses
// to characterize its NICs — an iperf-style streaming throughput test and
// the ping-pong latency test from the HPCC Latency-Bandwidth suite — on
// the simulated cluster, and a STREAM run on the host to show the real
// kernel behind the soc configs' memory-bandwidth calibration.
//
//	netbench            # both NICs
//	netbench -stream    # also run host STREAM (real arrays, real time)
package main

import (
	"flag"
	"fmt"
	"os"

	"clustersoc/internal/kernels"
	"clustersoc/internal/mpi"
	"clustersoc/internal/network"
	"clustersoc/internal/sim"
	"clustersoc/internal/units"
)

// iperf measures one long stream between two nodes.
func iperf(prof network.Profile) float64 {
	e := sim.NewEngine()
	nw := network.New(e, 2, prof)
	total := 1.0 * units.GB
	_, arrival := nw.Deliver(0, 1, total)
	e.Run()
	return total / arrival
}

// pingpong measures the small-message round trip through the MPI layer.
func pingpong(prof network.Profile, rounds int) float64 {
	e := sim.NewEngine()
	nw := network.New(e, 2, prof)
	c := mpi.NewComm(e, nw, []int{0, 1})
	for r := 0; r < 2; r++ {
		r := r
		e.Spawn("rank", func(p *sim.Process) {
			for i := 0; i < rounds; i++ {
				if r == 0 {
					c.Send(p, 0, 1, i, 8)
					c.Recv(p, 0, 1, i)
				} else {
					c.Recv(p, 1, 0, i)
					c.Send(p, 1, 0, i, 8)
				}
			}
		})
	}
	total := e.Run()
	return total / float64(rounds)
}

func main() {
	stream := flag.Bool("stream", false, "also run the real STREAM kernels on this host")
	rounds := flag.Int("rounds", 1000, "ping-pong rounds")
	flag.Parse()
	if *rounds < 1 {
		fmt.Fprintf(os.Stderr, "netbench: -rounds must be at least 1, got %d\n", *rounds)
		os.Exit(2)
	}

	fmt.Println("simulated NIC characterization (the paper's iperf + ping-pong numbers):")
	for _, prof := range []network.Profile{network.GigE, network.TenGigE} {
		bw := iperf(prof)
		rtt := pingpong(prof, *rounds)
		fmt.Printf("  %-6s  throughput %6.2f Gb/s   ping-pong RTT %6.1f us\n",
			prof.Name, bw*8/1e9, rtt/units.Microsecond)
	}
	fmt.Println("\n  (paper: 0.94 -> 3.3 Gb/s and 200 -> 50 us moving 1 GbE -> 10 GbE)")

	if *stream {
		fmt.Println("\nhost STREAM (real kernels; calibrates the soc MemBandwidth fields):")
		for _, r := range kernels.RunStream(1<<24, 3) {
			fmt.Printf("  %-6s %10s\n", r.Name, units.Rate(r.BytesPer))
		}
	}
}
