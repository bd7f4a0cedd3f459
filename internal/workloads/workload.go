// Package workloads models the paper's benchmarks (Table I and the NPB
// suite) as per-rank programs against the cluster simulation API. Each
// model owns its counts: the NPB models charge the published class C
// totals; hpl, gups and cloverleaf closed-form counts in their own files;
// jacobi kernels.JacobiSweepFlops, the count the host calibration also
// credits; and caffe the graph accounting of internal/nn.
// Microarchitectural characteristics (branch entropy, locality, working
// sets) are fixed per workload and documented inline.
package workloads

import (
	"fmt"
	"sort"

	"clustersoc/internal/cluster"
	"clustersoc/internal/cuda"
)

// Config adjusts a workload run.
type Config struct {
	// Scale in (0,1] shrinks the iteration count (and for hpl the matrix
	// order) so tests and benchmarks run quickly; 1 is the paper-sized
	// problem. Zero means 1.
	Scale float64
	// GPUWorkRatio in (0,1] is the fraction of hpl's trailing update run
	// on the GPU (Fig. 7); the rest runs on one CPU core. Zero means 1.
	GPUWorkRatio float64
	// HalfPrecision runs the AI forward passes in FP16 — 2x throughput on
	// the TX1's Tegra Maxwell, a 64x penalty on the desktop GM204 (an
	// extension experiment beyond the paper's FP32 runs).
	HalfPrecision bool
	// WeakScaling grows the problem with the rank count (hpl: N ~ sqrt(P)
	// keeps memory per node constant) — the regime Tibidabo reported its
	// MFLOPS/W under (Sec. II-A), versus the paper's strong-scaling runs.
	WeakScaling bool
}

func (c Config) scale() float64 {
	if c.Scale <= 0 || c.Scale > 1 {
		return 1
	}
	return c.Scale
}

// workRatio normalizes GPUWorkRatio: zero (or out-of-range) means the
// all-GPU split, exactly as the workload bodies interpret it.
func (c Config) workRatio() float64 {
	if c.GPUWorkRatio <= 0 || c.GPUWorkRatio > 1 {
		return 1
	}
	return c.GPUWorkRatio
}

// Key returns the canonical fingerprint of a workload configuration:
// two Configs that produce identical runs produce identical keys, with
// unset fields folded onto their effective defaults (Scale 0 == 1,
// GPUWorkRatio 0 == 1). The run-plane in internal/runner keys its
// result cache on it.
func (c Config) Key() string {
	return fmt.Sprintf("scale=%g;ratio=%g;fp16=%t;weak=%t",
		c.scale(), c.workRatio(), c.HalfPrecision, c.WeakScaling)
}

// scaledIters shrinks an iteration count, keeping at least min.
func (c Config) scaledIters(full, min int) int {
	n := int(float64(full) * c.scale())
	if n < min {
		n = min
	}
	return n
}

// Workload is one benchmark.
type Workload interface {
	// Name is the paper's tag for the benchmark (Table I / NPB).
	Name() string
	// GPUAccelerated distinguishes the CUDA+MPI set from the CPU NPB set.
	GPUAccelerated() bool
	// RanksPerNode is the MPI process density the paper uses: 1 for the
	// GPU codes (one process drives the GPU), 4 for NPB on the TX1.
	RanksPerNode() int
	// Body returns the per-rank program.
	Body(cfg Config) func(ctx *cluster.Context)
}

// imbalance returns a deterministic per-rank compute multiplier in
// [1, 1+amp): the load imbalance each workload exhibits (the LB factor of
// the scalability analysis). Knuth-hash keeps it reproducible and
// independent of rank count.
func imbalance(rank int, amp float64) float64 {
	h := uint32(rank+1) * 2654435761
	return 1 + amp*float64(h%1024)/1024
}

// gpuKernel builds a kernel whose DRAM-level operational intensity (eq. 1)
// is oiDRAM: requested L2 traffic is inflated so that after the hit ratio,
// DRAM sees flops/oiDRAM bytes.
func gpuKernel(name string, flops, oiDRAM, l2hit float64, single bool) cuda.Kernel {
	return cuda.Kernel{
		Name:            name,
		FLOPs:           flops,
		Bytes:           flops / (oiDRAM * (1 - l2hit)),
		L2HitRatio:      l2hit,
		SinglePrecision: single,
	}
}

var registry = map[string]Workload{}

func register(w Workload) { registry[w.Name()] = w }

// ByName returns a registered workload.
func ByName(name string) (Workload, error) {
	w, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("workloads: unknown workload %q", name)
	}
	return w, nil
}

// GPUWorkloads returns the seven GPGPU-accelerated benchmarks of Table I,
// in the paper's order.
func GPUWorkloads() []Workload {
	return pick("hpl", "jacobi", "cloverleaf", "tealeaf2d", "tealeaf3d", "alexnet", "googlenet")
}

// NPBWorkloads returns the NPB class C suite in the paper's order.
func NPBWorkloads() []Workload {
	return pick("bt", "cg", "ep", "ft", "is", "lu", "mg", "sp")
}

// All returns every registered workload, sorted by name.
func All() []Workload {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return pick(names...)
}

func pick(names ...string) []Workload {
	out := make([]Workload, 0, len(names))
	for _, n := range names {
		w, err := ByName(n)
		if err != nil {
			panic(err)
		}
		out = append(out, w)
	}
	return out
}
