package cluster_test

import (
	"testing"

	"clustersoc/internal/cluster"
	"clustersoc/internal/network"
	"clustersoc/internal/workloads"
)

// cgSink keeps the benchmarked result live so the call is not optimized
// away.
var cgSink cluster.Result

// cgReference runs the cg reference scenario (the 8-node TX1 cluster on
// 10GbE from the figures) once.
func cgReference(tb testing.TB, scale float64) cluster.Result {
	w, err := workloads.ByName("cg")
	if err != nil {
		tb.Fatal(err)
	}
	cfg := cluster.TX1Cluster(8, network.TenGigE)
	cfg.RanksPerNode = w.RanksPerNode()
	return cluster.New(cfg).Run(w.Body(workloads.Config{Scale: scale}))
}

// BenchmarkSequentialCG measures one cg reference scenario end to end.
func BenchmarkSequentialCG(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cgSink = cgReference(b, 0.08)
	}
}
