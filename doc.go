// Package clustersoc reproduces "Understanding the Role of
// GPGPU-accelerated SoC-based ARM Clusters" (Azimi, Fox, Reda — IEEE
// CLUSTER 2017) as a Go library: a deterministic discrete-event simulator
// of the paper's Jetson TX1 cluster and its comparison systems, analytic
// models of every benchmark's operation counts and communication
// schedule, the extended Roofline model, and the trace-replay scalability
// methodology.
//
// Start at internal/core for the library API, DESIGN.md for the system
// inventory and experiment index, and EXPERIMENTS.md for the
// paper-vs-measured record. The top-level benchmarks in this package
// regenerate every table and figure of the paper's evaluation:
//
//	go test -bench=. -benchmem
package clustersoc
