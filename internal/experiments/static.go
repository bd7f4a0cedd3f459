package experiments

import (
	"fmt"

	"clustersoc/internal/soc"
	"clustersoc/internal/units"
	"clustersoc/internal/workloads"
)

// Table1 renders Table I: the GPGPU-accelerated workload summary, emitted
// from the same registry the simulator runs, so the documentation cannot
// drift from the models.
func Table1() string {
	desc := map[string][2]string{
		"hpl":        {"High Performance Linpack solving Ax=b", "N=20480"},
		"cloverleaf": {"Solves compressible Euler equations", "3840^2 cells, 500 steps"},
		"tealeaf2d":  {"Solves the linear heat conduction equation in 2D", "4096x4096 cells, 100 steps"},
		"tealeaf3d":  {"Solves the linear heat conduction equation in 3D", "256^3 cells, 50 steps"},
		"jacobi":     {"Solves Poisson equation on a rectangle", "matrix size 16384"},
		"alexnet":    {"Parallelized Caffe classifying ImageNet with AlexNet", "8192 images"},
		"googlenet":  {"Parallelized Caffe classifying ImageNet with GoogleNet", "8192 images"},
	}
	t := &table{header: []string{"tag", "description", "input size"}}
	for _, w := range workloads.GPUWorkloads() {
		d := desc[w.Name()]
		t.add(w.Name(), d[0], d[1])
	}
	return t.String()
}

// Table5 renders Table V: the many-core ARM server vs TX1 configuration,
// from the soc configs the simulator runs on.
func Table5() string {
	cav := soc.CaviumThunderX()
	tx := soc.JetsonTX1()
	t := &table{header: []string{"", "Cavium ThunderX", "NVIDIA TX1"}}
	t.add("ISA", cav.CPU.ISA, tx.CPU.ISA+" & PTX")
	t.add("tech", cav.CPU.ProcTech, tx.CPU.ProcTech)
	t.add("CPU cores", fmt.Sprintf("%d", cav.CPU.Cores), fmt.Sprintf("%d %s", tx.CPU.Cores, tx.CPU.Name))
	t.add("CPU freq", fmt.Sprintf("%.1f GHz", cav.CPU.FreqHz/units.GHz), fmt.Sprintf("%.2f GHz", tx.CPU.FreqHz/units.GHz))
	t.add("GPGPU", "-", fmt.Sprintf("%d Maxwell SM", tx.GPU.SMs))
	t.add("L1 (I/D)", fmtKB(cav.CPU.L1IBytes)+"/"+fmtKB(cav.CPU.L1DBytes), fmtKB(tx.CPU.L1IBytes)+"/"+fmtKB(tx.CPU.L1DBytes))
	t.add("L2 size", fmtMB(cav.CPU.L2Bytes), fmtMB(tx.CPU.L2Bytes))
	t.add("SoC TDP", fmt.Sprintf("%.0f W", cav.CPU.TDPWatts), fmt.Sprintf("%.0f W", tx.CPU.TDPWatts))
	return t.String()
}

// Table7 renders Table VII: the discrete vs integrated GPGPU configuration.
func Table7() string {
	gtx := soc.XeonGTX980()
	tx := soc.JetsonTX1()
	t := &table{header: []string{"", "MSI GTX 980", "NVIDIA TX1"}}
	t.add("cores", fmt.Sprintf("%d Maxwell SM", gtx.GPU.SMs), fmt.Sprintf("%d Maxwell SM", tx.GPU.SMs))
	t.add("CUDA cores", fmt.Sprintf("%d", gtx.GPU.Cores()), fmt.Sprintf("%d", tx.GPU.Cores()))
	t.add("GPGPU freq", fmt.Sprintf("%.1f GHz", gtx.GPU.FreqHz/units.GHz), fmt.Sprintf("%.3f GHz", tx.GPU.FreqHz/units.GHz))
	t.add("L2 size", fmtMB(gtx.GPU.L2Bytes), fmtMB(tx.GPU.L2Bytes))
	t.add("memory", "4 GB GDDR5", "4 GB LPDDR4 (shared)")
	t.add("mem bandwidth", units.Rate(gtx.GPU.MemBandwidth), units.Rate(tx.GPU.MemBandwidth))
	t.add("TDP", fmt.Sprintf("%.0f W", gtx.GPU.TDPWatts), fmt.Sprintf("%.0f W", tx.GPU.TDPWatts))
	return t.String()
}

func fmtKB(b float64) string { return fmt.Sprintf("%.0fKB", b/units.KiB) }
func fmtMB(b float64) string {
	if b >= units.MiB {
		return fmt.Sprintf("%.1fMB", b/units.MiB)
	}
	return fmtKB(b)
}
