package workloads

import (
	"math"
	"testing"
	"testing/quick"

	"clustersoc/internal/cluster"
	"clustersoc/internal/network"
)

// runOn executes a workload on an n-node TX1 cluster.
func runOn(t *testing.T, w Workload, n int, prof network.Profile, scale float64) cluster.Result {
	t.Helper()
	cfg := cluster.TX1Cluster(n, prof)
	cfg.RanksPerNode = w.RanksPerNode()
	if w.GPUAccelerated() {
		cfg.FileServer = true
	}
	return cluster.New(cfg).Run(w.Body(Config{Scale: scale}))
}

func TestRegistryComplete(t *testing.T) {
	if got := len(GPUWorkloads()); got != 7 {
		t.Fatalf("GPU workloads = %d, want the paper's 7", got)
	}
	if got := len(NPBWorkloads()); got != 8 {
		t.Fatalf("NPB workloads = %d, want 8", got)
	}
	if _, err := ByName("nonesuch"); err == nil {
		t.Fatal("unknown workload should error")
	}
	for _, w := range All() {
		if w.Name() == "" || w.RanksPerNode() < 1 {
			t.Fatalf("malformed workload %+v", w)
		}
	}
}

// Every workload runs to completion on several cluster sizes, produces
// positive runtime/FLOPs, and is deterministic.
func TestAllWorkloadsRunEverywhere(t *testing.T) {
	for _, w := range All() {
		for _, n := range []int{1, 3, 4} {
			res := runOn(t, w, n, network.TenGigE, 0.02)
			if res.Runtime <= 0 {
				t.Fatalf("%s@%d: no runtime", w.Name(), n)
			}
			if res.FLOPs <= 0 {
				t.Fatalf("%s@%d: no FLOPs credited", w.Name(), n)
			}
			again := runOn(t, w, n, network.TenGigE, 0.02)
			if again.Runtime != res.Runtime || again.EnergyJoules != res.EnergyJoules {
				t.Fatalf("%s@%d: nondeterministic run", w.Name(), n)
			}
		}
	}
}

// GPU workloads must actually use the GPU; NPB must not.
func TestWorkloadKindsUseTheRightEngines(t *testing.T) {
	for _, w := range All() {
		res := runOn(t, w, 2, network.TenGigE, 0.02)
		if w.GPUAccelerated() && res.GPU.Launches == 0 {
			t.Errorf("%s: GPU workload launched no kernels", w.Name())
		}
		if !w.GPUAccelerated() && res.GPU.Launches != 0 {
			t.Errorf("%s: CPU workload touched the GPU", w.Name())
		}
	}
}

// Strong scaling sanity: 4 nodes beat 1 node for every workload.
func TestStrongScalingDirection(t *testing.T) {
	for _, w := range All() {
		one := runOn(t, w, 1, network.TenGigE, 0.02)
		four := runOn(t, w, 4, network.TenGigE, 0.02)
		if four.Runtime >= one.Runtime {
			t.Errorf("%s: no speedup from 1 to 4 nodes (%.3f vs %.3f)", w.Name(), one.Runtime, four.Runtime)
		}
	}
}

// The same problem moves the same total FLOPs regardless of the network.
func TestFlopsNetworkInvariant(t *testing.T) {
	for _, name := range []string{"hpl", "tealeaf3d", "ft"} {
		w, _ := ByName(name)
		a := runOn(t, w, 4, network.GigE, 0.02)
		b := runOn(t, w, 4, network.TenGigE, 0.02)
		if math.Abs(a.FLOPs-b.FLOPs) > 1e-6*a.FLOPs {
			t.Errorf("%s: FLOPs changed with the NIC", name)
		}
	}
}

func TestHPLScaledN(t *testing.T) {
	h := NewHPL()
	full := h.scaledN(Config{Scale: 1})
	small := h.scaledN(Config{Scale: 0.05})
	if full != 20480 {
		t.Fatalf("full N = %d", full)
	}
	if small >= full || small%h.NB != 0 || small < 16*h.NB {
		t.Fatalf("scaled N = %d", small)
	}
}

func TestHPLFlopCounts(t *testing.T) {
	// Known answers at n=512, k=0, nb=32: 2*480^2*32 FLOPs of trailing
	// update and a 512x32 panel of 8-byte values.
	if got := hplTrailingFlops(512, 0, 32); got != 14745600 {
		t.Errorf("hplTrailingFlops(512, 0, 32) = %v, want 14745600", got)
	}
	if got := hplPanelBytes(512, 0, 32); got != 131072 {
		t.Errorf("hplPanelBytes(512, 0, 32) = %v, want 131072", got)
	}
	// The trailing updates carry most, but not all, of the canonical hpl
	// count 2/3 n^3 + 2 n^2.
	n, nb := 512, 32
	fn := float64(n)
	canonical := 2.0/3.0*fn*fn*fn + 2*fn*fn
	total := 0.0
	for k := 0; k < n; k += nb {
		total += hplTrailingFlops(n, k, nb)
	}
	if total > canonical || total < 0.5*canonical {
		t.Errorf("trailing updates sum %v vs canonical %v", total, canonical)
	}
}

func TestFig7RatioReducesThroughput(t *testing.T) {
	w, _ := ByName("hpl")
	cfg := cluster.TX1Cluster(2, network.TenGigE)
	cfg.RanksPerNode = 1
	cfg.FileServer = true
	all := cluster.New(cfg).Run(w.Body(Config{Scale: 0.03, GPUWorkRatio: 1}))
	cfg2 := cfg
	half := cluster.New(cfg2).Run(w.Body(Config{Scale: 0.03, GPUWorkRatio: 0.5}))
	if half.Runtime <= all.Runtime {
		t.Fatal("moving half the update to one CPU core must slow hpl down")
	}
	if math.Abs(half.FLOPs-all.FLOPs) > 1e-6*all.FLOPs {
		t.Fatal("the work split must not change total FLOPs")
	}
}

func TestImbalanceProperty(t *testing.T) {
	f := func(rank uint16, ampRaw uint8) bool {
		amp := float64(ampRaw) / 255.0
		v := imbalance(int(rank), amp)
		return v >= 1 && v < 1+amp+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if imbalance(3, 0.5) != imbalance(3, 0.5) {
		t.Fatal("imbalance must be deterministic")
	}
}

func TestGPUKernelHelper(t *testing.T) {
	k := gpuKernel("k", 1e9, 0.5, 0.4, false)
	dram := k.Bytes * (1 - k.L2HitRatio)
	oi := k.FLOPs / dram
	if math.Abs(oi-0.5) > 1e-9 {
		t.Fatalf("helper produced DRAM OI %v, want 0.5", oi)
	}
}

func TestScaledIters(t *testing.T) {
	c := Config{Scale: 0.1}
	if got := c.scaledIters(100, 4); got != 10 {
		t.Fatalf("scaledIters = %d", got)
	}
	if got := c.scaledIters(10, 4); got != 4 {
		t.Fatalf("min clamp = %d", got)
	}
	if got := (Config{}).scaledIters(100, 4); got != 100 {
		t.Fatalf("zero scale should mean full size, got %d", got)
	}
}

// Network traffic per rank shrinks as ranks grow for the strong-scaled
// halo codes (the per-rank strip narrows).
func TestHaloTrafficShrinksWithRanks(t *testing.T) {
	w, _ := ByName("cloverleaf")
	four := runOn(t, w, 4, network.TenGigE, 0.02)
	eight := runOn(t, w, 8, network.TenGigE, 0.02)
	perRank4 := four.NetBytes / 4
	perRank8 := eight.NetBytes / 8
	// Halo size per rank is constant for a 1D strip code once interior
	// ranks dominate, so per-rank traffic is roughly flat from 4 to 8.
	if perRank8 > perRank4*1.25 || perRank8 < perRank4*0.75 {
		t.Errorf("per-rank halo traffic not flat: %v -> %v", perRank4, perRank8)
	}
}

// FP16 speeds the AI pipeline on the TX1 (never slows it) and the run
// stays deterministic.
func TestHalfPrecisionOption(t *testing.T) {
	w, _ := ByName("googlenet")
	cfg := cluster.TX1Cluster(2, network.TenGigE)
	cfg.RanksPerNode = 1
	cfg.FileServer = true
	fp32 := cluster.New(cfg).Run(w.Body(Config{Scale: 0.02}))
	cfg2 := cfg
	fp16 := cluster.New(cfg2).Run(w.Body(Config{Scale: 0.02, HalfPrecision: true}))
	if fp16.Runtime > fp32.Runtime {
		t.Fatalf("FP16 slower than FP32 on the TX1: %v vs %v", fp16.Runtime, fp32.Runtime)
	}
}

// GPUDirect removes the host staging copies around halo exchanges: never
// slower, and the GPU copy byte count drops.
func TestGPUDirectOption(t *testing.T) {
	w, _ := ByName("tealeaf3d")
	base := cluster.TX1Cluster(4, network.TenGigE)
	base.RanksPerNode = 1
	base.FileServer = true
	staged := cluster.New(base).Run(w.Body(Config{Scale: 0.02}))
	direct := base
	direct.GPUDirect = true
	dres := cluster.New(direct).Run(w.Body(Config{Scale: 0.02}))
	if dres.Runtime > staged.Runtime {
		t.Fatalf("GPUDirect slower: %v vs %v", dres.Runtime, staged.Runtime)
	}
	if dres.GPU.CopyBytes >= staged.GPU.CopyBytes {
		t.Fatalf("GPUDirect did not remove staging copies: %v vs %v", dres.GPU.CopyBytes, staged.GPU.CopyBytes)
	}
}

func TestConfigKeyCanonicalizesDefaults(t *testing.T) {
	if (Config{}).Key() != (Config{Scale: 1, GPUWorkRatio: 1}).Key() {
		t.Error("zero config and explicit defaults must share a key")
	}
	distinct := []Config{
		{Scale: 0.5},
		{Scale: 0.5, GPUWorkRatio: 0.7},
		{Scale: 0.5, HalfPrecision: true},
		{Scale: 0.5, WeakScaling: true},
	}
	seen := map[string]bool{(Config{}).Key(): true}
	for i, c := range distinct {
		if seen[c.Key()] {
			t.Errorf("config %d collides with an earlier key", i)
		}
		seen[c.Key()] = true
	}
}
