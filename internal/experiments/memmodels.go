package experiments

import (
	"clustersoc/internal/cuda"
	"clustersoc/internal/network"
	"clustersoc/internal/runner"
)

// MemModelRow is one Table III column group: jacobi under one CUDA
// memory-management model at one cluster size, normalized to the
// host-and-device model.
type MemModelRow struct {
	Nodes int
	Model cuda.MemModel

	Runtime          float64
	L2Utilization    float64
	L2ReadThroughput float64
	MemoryStalls     float64

	// Normalized values (relative to HostDevice at the same size).
	RuntimeNorm float64
	L2UtilNorm  float64
	L2ReadNorm  float64
	StallsNorm  float64
}

// MemModels holds Table III.
type MemModels struct {
	Rows []MemModelRow
}

// Table3 regenerates Table III: jacobi under the three CUDA memory
// management models on 1 node and 8 nodes, 10 GbE.
func Table3(o Options) *MemModels {
	sizes := []int{1, 8}
	models := []cuda.MemModel{cuda.HostDevice, cuda.ZeroCopy, cuda.Unified}
	var scenarios []runner.Scenario
	for _, nodes := range sizes {
		for _, model := range models {
			sc := preset("tx1", nodes, network.TenGigE, "jacobi", o.config())
			sc.Cluster.MemModel = model
			scenarios = append(scenarios, sc)
		}
	}
	results := runAll(o, scenarios)
	out := &MemModels{}
	i := 0
	for _, nodes := range sizes {
		var base MemModelRow
		for _, model := range models {
			res := results[i]
			i++
			row := MemModelRow{
				Nodes:            nodes,
				Model:            model,
				Runtime:          res.Runtime,
				L2Utilization:    res.GPU.L2Utilization(),
				L2ReadThroughput: res.GPU.L2ReadThroughput(),
				MemoryStalls:     res.GPU.MemoryStallFraction(),
			}
			if model == cuda.HostDevice {
				base = row
			}
			norm := func(v, b float64) float64 {
				if b == 0 {
					return 0
				}
				return v / b
			}
			row.RuntimeNorm = norm(row.Runtime, base.Runtime)
			row.L2UtilNorm = norm(row.L2Utilization, base.L2Utilization)
			row.L2ReadNorm = norm(row.L2ReadThroughput, base.L2ReadThroughput)
			row.StallsNorm = norm(row.MemoryStalls, base.MemoryStalls)
			out.Rows = append(out.Rows, row)
		}
	}
	return out
}

// Row returns the entry for (nodes, model), or nil.
func (m *MemModels) Row(nodes int, model cuda.MemModel) *MemModelRow {
	for i := range m.Rows {
		if m.Rows[i].Nodes == nodes && m.Rows[i].Model == model {
			return &m.Rows[i]
		}
	}
	return nil
}

// String renders Table III (normalized to H & D, as the paper prints it).
func (m *MemModels) String() string {
	t := &table{header: []string{"nodes", "model", "runtime", "L2 usage", "L2 read thpt", "memory stalls"}}
	for _, r := range m.Rows {
		t.add(f1(float64(r.Nodes)), r.Model.String(), f2(r.RuntimeNorm), f2(r.L2UtilNorm), f2(r.L2ReadNorm), f2(r.StallsNorm))
	}
	return t.String()
}
