package experiments

import (
	"clustersoc/internal/network"
	"clustersoc/internal/runner"
)

// RelatedWork extends the Sec. IV-A comparison across the ARM server
// generations the paper's introduction and related work discuss: the
// X-Gene 1 (8 big cores — the chip Azimi et al. studied before this
// paper), the Cavium ThunderX (96 small cores), and the proposed 8-node
// TX1 cluster (32 mobile cores + GPUs idle for NPB). Runtimes are
// normalized to the TX1 cluster, like Table VI.

// RelatedWorkRow is one benchmark across the three systems.
type RelatedWorkRow struct {
	Workload string

	TX1Runtime    float64
	CaviumRuntime float64
	XGeneRuntime  float64

	NormCavium float64 // Cavium / TX1
	NormXGene  float64 // X-Gene / TX1
}

// RelatedWorkStudy holds the three-way comparison.
type RelatedWorkStudy struct {
	Rows []RelatedWorkRow
}

// RelatedWorkCompare runs a representative NPB subset on all three
// systems. The X-Gene's 8 ranks get proportionally less of the class C
// problem per rank-second, which is the point: core count and per-core
// strength trade off differently on every chip.
func RelatedWorkCompare(o Options) *RelatedWorkStudy {
	names := []string{"ep", "cg", "mg", "ft"}
	var scenarios []runner.Scenario
	for _, name := range names {
		for _, system := range []string{"tx1", "cavium", "xgene"} {
			scenarios = append(scenarios, preset(system, 0, network.GigE, name, o.config()))
		}
	}
	res := runAll(o, scenarios)
	out := &RelatedWorkStudy{}
	for i, name := range names {
		tx, cav, xg := res[3*i], res[3*i+1], res[3*i+2]
		out.Rows = append(out.Rows, RelatedWorkRow{
			Workload:      name,
			TX1Runtime:    tx.Runtime,
			CaviumRuntime: cav.Runtime,
			XGeneRuntime:  xg.Runtime,
			NormCavium:    cav.Runtime / tx.Runtime,
			NormXGene:     xg.Runtime / tx.Runtime,
		})
	}
	return out
}

// Row returns one benchmark's entry, or nil.
func (rw *RelatedWorkStudy) Row(name string) *RelatedWorkRow {
	for i := range rw.Rows {
		if rw.Rows[i].Workload == name {
			return &rw.Rows[i]
		}
	}
	return nil
}

// String renders the comparison.
func (rw *RelatedWorkStudy) String() string {
	t := &table{header: []string{"benchmark", "Cavium/TX1", "X-Gene/TX1"}}
	for _, r := range rw.Rows {
		t.add(r.Workload, f2(r.NormCavium), f2(r.NormXGene))
	}
	return t.String()
}
