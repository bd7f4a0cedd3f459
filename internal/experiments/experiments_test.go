package experiments

import (
	"math"
	"strings"
	"testing"

	"clustersoc/internal/cluster"
	"clustersoc/internal/cuda"
	"clustersoc/internal/dimemas"
	"clustersoc/internal/network"
	"clustersoc/internal/roofline"
	"clustersoc/internal/workloads"
)

// The integration tests assert the *shapes* DESIGN.md commits to — who
// wins, in which direction, where the limits fall — not absolute numbers.
// They are the executable form of the EXPERIMENTS.md paper-vs-measured
// record.

func testOptions() Options {
	return Options{Scale: 0.05, Sizes: []int{2, 4, 8}}
}

func TestFig1And2Shapes(t *testing.T) {
	nc := Fig1(testOptions())

	// Every speedup is >= ~1: a faster NIC never hurts.
	for _, r := range nc.Rows {
		if r.Speedup() < 0.99 {
			t.Errorf("%s@%d: 10GbE slowed the run down (%.2f)", r.Workload, r.Nodes, r.Speedup())
		}
	}
	// The network-bound set gains the most at 8 nodes.
	for _, name := range []string{"tealeaf3d", "ft", "is", "cg"} {
		if s := nc.Row(name, 8).Speedup(); s < 1.5 {
			t.Errorf("%s@8: network-bound speedup only %.2f", name, s)
		}
	}
	// hpl gains more than the stencil codes (second tier).
	if nc.Row("hpl", 8).Speedup() <= nc.Row("jacobi", 8).Speedup() {
		t.Error("hpl should benefit more from 10GbE than jacobi")
	}
	// The compute-bound controls barely move.
	for _, name := range []string{"ep", "bt", "mg", "jacobi", "alexnet"} {
		if s := nc.Row(name, 8).Speedup(); s > 1.25 {
			t.Errorf("%s@8: unexpected network sensitivity %.2f", name, s)
		}
	}
	// Speedup grows (or holds) with cluster size for the network-bound set:
	// inter-node communication rises with node count (Sec. III-B.1).
	for _, name := range []string{"tealeaf3d", "ft", "hpl"} {
		if nc.Row(name, 8).Speedup() < nc.Row(name, 2).Speedup()-0.05 {
			t.Errorf("%s: speedup shrank with cluster size", name)
		}
	}
	// Fig. 2: the big winners also save energy despite the +5 W NICs...
	for _, name := range []string{"tealeaf3d", "ft", "is", "cg"} {
		if e := nc.Row(name, 8).EnergyRatio(); e > 0.95 {
			t.Errorf("%s@8: energy ratio %.2f, want < 0.95", name, e)
		}
	}
	// ...while the insensitive ones pay a modest premium, never a huge one.
	for _, r := range nc.Rows {
		if e := r.EnergyRatio(); e > 1.3 {
			t.Errorf("%s@%d: energy ratio %.2f implausibly high", r.Workload, r.Nodes, e)
		}
	}
}

func TestFig3Shapes(t *testing.T) {
	tr := Fig3(testOptions())

	// hpl and tealeaf3d were starved by 1 GbE: their DRAM traffic rate
	// rises substantially when the network gets out of the way (the paper
	// reports +93%/+99%).
	for _, name := range []string{"tealeaf3d", "hpl"} {
		g1 := tr.Point(name, "1GbE").DRAMRate
		g10 := tr.Point(name, "10GbE").DRAMRate
		if g10 < 1.3*g1 {
			t.Errorf("%s: DRAM rate gained only %.0f%% from 10GbE", name, 100*(g10/g1-1))
		}
	}
	// The AI workloads sit at a large DRAM:network ratio — their data is
	// node-local except the image stream.
	for _, name := range []string{"alexnet", "googlenet"} {
		p := tr.Point(name, "10GbE")
		if p.DRAMRate/p.NetRate < 50 {
			t.Errorf("%s: DRAM:network ratio %.0f, want node-local behaviour", name, p.DRAMRate/p.NetRate)
		}
	}
	// The moderate middle band barely changes between networks.
	for _, name := range []string{"jacobi", "cloverleaf", "tealeaf2d"} {
		g1 := tr.Point(name, "1GbE").DRAMRate
		g10 := tr.Point(name, "10GbE").DRAMRate
		if g10 > 1.25*g1 {
			t.Errorf("%s: middle-band workload moved too much (%.2fx)", name, g10/g1)
		}
	}
}

func TestTable2Shapes(t *testing.T) {
	rf := Table2(testOptions())

	// No workload beats its roof.
	for _, r := range rf.Rows {
		if r.PercentOfPeak > 100.5 {
			t.Errorf("%s/%s exceeds the roofline: %.1f%%", r.Workload, r.Network, r.PercentOfPeak)
		}
	}
	// The stencil codes are memory-roof ("operational") limited on both
	// networks, as in Table II.
	for _, name := range []string{"jacobi", "cloverleaf", "tealeaf2d"} {
		for _, net := range []string{"1GbE", "10GbE"} {
			if l := rf.Row(name, net).Limit; l != roofline.LimitOperational {
				t.Errorf("%s/%s limit = %s, want operational", name, net, l)
			}
		}
	}
	// hpl comes closest to its attainable peak among the DP scientific
	// codes on 10 GbE ("hpl comes closest to reaching the peak").
	best := rf.Row("hpl", "10GbE").PercentOfPeak
	for _, name := range []string{"cloverleaf", "tealeaf2d", "tealeaf3d"} {
		if rf.Row(name, "10GbE").PercentOfPeak >= best {
			t.Errorf("%s reaches %.1f%% of peak, above hpl's %.1f%%", name, rf.Row(name, "10GbE").PercentOfPeak, best)
		}
	}
	// The AI codes have order-of-magnitude larger intensities.
	if rf.Row("alexnet", "10GbE").OI < 4*rf.Row("jacobi", "10GbE").OI {
		t.Error("alexnet OI should dwarf the stencil codes'")
	}
	// Intensities are workload properties: identical across networks.
	for _, name := range []string{"hpl", "jacobi", "tealeaf3d"} {
		a, b := rf.Row(name, "1GbE"), rf.Row(name, "10GbE")
		if math.Abs(a.OI-b.OI) > 1e-9*a.OI {
			t.Errorf("%s: OI changed with the network", name)
		}
	}
	// The Fig. 4 roof series exists and is monotone.
	if len(rf.Series10G) == 0 || len(rf.Series1G) == 0 {
		t.Fatal("missing roofline series")
	}
}

func TestFig5Shapes(t *testing.T) {
	s := Fig5(testOptions())

	// hpl and jacobi scale best; tealeaf3d worst (Sec. III-B.4).
	hpl := s.Curve("hpl")
	jac := s.Curve("jacobi")
	t3d := s.Curve("tealeaf3d")
	last := len(hpl.Nodes) - 1
	if jac.Speedup10G(last) < 6 {
		t.Errorf("jacobi speedup@8 = %.2f, want near-linear", jac.Speedup10G(last))
	}
	if t3d.Speedup10G(last) > jac.Speedup10G(last)-1 {
		t.Errorf("tealeaf3d (%.2f) should scale clearly worse than jacobi (%.2f)",
			t3d.Speedup10G(last), jac.Speedup10G(last))
	}
	// The two network-bound codes gain the most from the ideal-network
	// replay (paper: ~1.7x for hpl and tealeaf3d).
	for _, c := range s.Curves {
		gain := c.IdealNetGain(last)
		if c.Workload == "hpl" || c.Workload == "tealeaf3d" {
			if gain < 1.3 {
				t.Errorf("%s ideal-network gain %.2f, want > 1.3", c.Workload, gain)
			}
		} else if gain > 1.25 {
			t.Errorf("%s ideal-network gain %.2f suspiciously high", c.Workload, gain)
		}
	}
	// tealeaf2d shows the worst load balance of the GPU set.
	worstLB, worstName := 1.0, ""
	for _, c := range s.Curves {
		if lb := c.Eff[last].LB; lb < worstLB {
			worstLB, worstName = lb, c.Workload
		}
	}
	if worstName != "tealeaf2d" {
		t.Errorf("worst-LB GPU workload = %s (LB %.2f), want tealeaf2d", worstName, worstLB)
	}
	// Fits are good (the paper reports r2 ~ 0.98).
	if s.AverageR2() < 0.9 {
		t.Errorf("average fit r2 = %.3f", s.AverageR2())
	}
}

func TestFig6Shapes(t *testing.T) {
	s := Fig6(testOptions())
	last := 3 // sizes 1,2,4,8

	// ft and is are the suite's network victims: biggest ideal-network
	// gains (paper: ~3.3x average for the two).
	for _, name := range []string{"ft", "is"} {
		if g := s.Curve(name).IdealNetGain(last); g < 1.8 {
			t.Errorf("%s ideal-network gain %.2f, want > 1.8", name, g)
		}
	}
	// cg and lu are the load-imbalance victims: lowest LB factors.
	for _, name := range []string{"cg", "lu"} {
		if lb := s.Curve(name).Eff[last].LB; lb > 0.93 {
			t.Errorf("%s LB = %.2f, want < 0.93", name, lb)
		}
	}
	// The well-scaling four approach linear speedup.
	for _, name := range []string{"bt", "ep", "mg", "sp"} {
		if sp := s.Curve(name).Speedup10G(last); sp < 6.5 {
			t.Errorf("%s speedup@8 = %.2f, want near-linear", name, sp)
		}
	}
	// The poor scalers stay clearly below.
	for _, name := range []string{"cg", "ft", "is"} {
		if sp := s.Curve(name).Speedup10G(last); sp > 5.5 {
			t.Errorf("%s speedup@8 = %.2f, expected poor scaling", name, sp)
		}
	}
}

func TestTable3Shapes(t *testing.T) {
	m := Table3(testOptions())
	for _, nodes := range []int{1, 8} {
		zc := m.Row(nodes, cuda.ZeroCopy)
		um := m.Row(nodes, cuda.Unified)
		// Zero-copy: ~2x runtime, collapsed cache metrics, more stalls
		// (Table III / the Nvidia-confirmed cache bypass).
		if zc.RuntimeNorm < 1.6 || zc.RuntimeNorm > 3.2 {
			t.Errorf("%d nodes: zero-copy runtime %.2fx, want ~2x", nodes, zc.RuntimeNorm)
		}
		if zc.L2UtilNorm > 0.05 || zc.L2ReadNorm > 0.05 {
			t.Errorf("%d nodes: zero-copy should bypass the L2", nodes)
		}
		if zc.StallsNorm <= 1.1 {
			t.Errorf("%d nodes: zero-copy stalls %.2f, want elevated", nodes, zc.StallsNorm)
		}
		// Unified memory matches host-and-device within a few percent.
		if um.RuntimeNorm < 0.97 || um.RuntimeNorm > 1.06 {
			t.Errorf("%d nodes: unified runtime %.2f, want ~1.0", nodes, um.RuntimeNorm)
		}
		if um.L2UtilNorm < 0.95 {
			t.Errorf("%d nodes: unified memory must keep the cache hierarchy", nodes)
		}
	}
}

func TestFig7Shapes(t *testing.T) {
	wr := Fig7(Options{Scale: 0.05, Sizes: []int{4, 8}})
	for _, nodes := range []int{4, 8} {
		prev := 0.0
		for _, ratio := range []float64{0.5, 0.7, 0.9, 1.0} {
			p := wr.At(nodes, ratio)
			if p == nil {
				t.Fatalf("missing point %d/%v", nodes, ratio)
			}
			// Allow a small hump near ratio 1: offloading a sliver of work
			// to an otherwise-idle core can slightly beat pure-GPU while
			// the GPU remains the bottleneck.
			if p.Normalized < prev-0.05 {
				t.Errorf("%d nodes: efficiency not monotone in GPU ratio", nodes)
			}
			prev = p.Normalized
		}
		// Shifting half the work to one CPU core costs roughly half the
		// efficiency (the paper: a core is ~45-55% less efficient than
		// the SMs).
		if h := wr.At(nodes, 0.5).Normalized; h < 0.25 || h > 0.75 {
			t.Errorf("%d nodes: 50%% ratio efficiency %.2f outside the plausible band", nodes, h)
		}
	}
}

func TestTable4Shapes(t *testing.T) {
	c := Table4(Options{Scale: 0.05, Sizes: []int{4, 8}})
	for _, net := range []string{"1GbE", "10GbE"} {
		for _, nodes := range []int{4, 8} {
			cpu := c.Row("CPU", net, nodes)
			gpu := c.Row("GPU", net, nodes)
			both := c.Row("CPU+GPU", net, nodes)
			// The GPU version clearly beats the CPU version.
			if gpu.ThroughputGFLOPS < 1.5*cpu.ThroughputGFLOPS {
				t.Errorf("%s@%d: GPU %.1f GF vs CPU %.1f GF", net, nodes, gpu.ThroughputGFLOPS, cpu.ThroughputGFLOPS)
			}
			// Collocation adds throughput over either alone.
			if both.ThroughputGFLOPS < gpu.ThroughputGFLOPS {
				t.Errorf("%s@%d: collocated %.1f < GPU %.1f", net, nodes, both.ThroughputGFLOPS, gpu.ThroughputGFLOPS)
			}
			// And improves energy efficiency over the best single engine
			// (the paper reports ~1.5x).
			best := math.Max(cpu.MFLOPSPerWatt, gpu.MFLOPSPerWatt)
			if both.MFLOPSPerWatt < best {
				t.Errorf("%s@%d: collocated %.1f MF/W below best single %.1f", net, nodes, both.MFLOPSPerWatt, best)
			}
		}
	}
	// 10 GbE beats 1 GbE for every configuration at 8 nodes.
	for _, config := range []string{"CPU", "GPU", "CPU+GPU"} {
		if c.Row(config, "10GbE", 8).ThroughputGFLOPS < c.Row(config, "1GbE", 8).ThroughputGFLOPS {
			t.Errorf("%s: 10GbE slower than 1GbE", config)
		}
	}
}

func TestTable6AndFig8Shapes(t *testing.T) {
	cc := Table6(testOptions())

	// The communication/imbalance-bound group favours the single box...
	for _, name := range []string{"cg", "ft", "is"} {
		if r := cc.Row(name).NormRuntime; r > 0.95 {
			t.Errorf("%s: Cavium normalized runtime %.2f, want < 0.95", name, r)
		}
	}
	// ...the compute-shaped group favours the TX1 cluster, mg worst of all.
	for _, name := range []string{"bt", "ep", "mg", "sp"} {
		if r := cc.Row(name).NormRuntime; r < 1.5 {
			t.Errorf("%s: Cavium normalized runtime %.2f, want > 1.5", name, r)
		}
	}
	worst, worstName := 0.0, ""
	for _, r := range cc.Rows {
		if r.NormRuntime > worst {
			worst, worstName = r.NormRuntime, r.Workload
		}
	}
	if worstName != "mg" {
		t.Errorf("worst Cavium benchmark = %s, want mg (the paper's Fig. 8 standout)", worstName)
	}
	// mg shows the highest relative branch misprediction and speculative
	// instructions; ep the highest relative L2 miss ratio.
	for _, metric := range []string{"BR_MIS_PRED", "INST_SPEC"} {
		if cc.Row("mg").RelMetric(metric) < cc.Row("ft").RelMetric(metric) {
			t.Errorf("mg should out-%s ft", metric)
		}
	}
	if cc.Row("ep").RelMetric("LD_MISS_RATIO") <= cc.Row("cg").RelMetric("LD_MISS_RATIO") {
		t.Error("ep should have the elevated relative L2 miss ratio")
	}
	// PLS: three components suffice, and the top variables tell the
	// paper's story: branch speculation plus the memory hierarchy.
	if cc.Components95 > 3 {
		t.Errorf("PLS needs %d components for 95%%, paper finds 3", cc.Components95)
	}
	tops := strings.Join(cc.TopVariables, ",")
	if !strings.Contains(tops, "BR_MIS_PRED") && !strings.Contains(tops, "INST_SPEC") {
		t.Errorf("PLS top variables %v miss the branch story", cc.TopVariables)
	}
	if !strings.Contains(tops, "STALL_BACKEND") && !strings.Contains(tops, "LD_MISS_RATIO") &&
		!strings.Contains(tops, "L2D_CACHE_REFILL") {
		t.Errorf("PLS top variables %v miss the memory story", cc.TopVariables)
	}
}

func TestFig9Shapes(t *testing.T) {
	d := Fig9(testOptions())

	// Small TX1 clusters: slower but cheaper than 2x GTX 980 (class 1).
	for _, name := range []string{"hpl", "jacobi", "tealeaf3d"} {
		r := d.Row(name, 2)
		if r.NormRuntime < 1 {
			t.Errorf("%s@2: TX1 should not outrun 2 GTX 980s (%.2f)", name, r.NormRuntime)
		}
	}
	// Poor scalers burn more energy as nodes are added (class 2).
	if d.Row("tealeaf3d", 8).NormEnergy <= d.Row("tealeaf3d", 2).NormEnergy {
		t.Error("tealeaf3d energy should degrade with cluster size")
	}
	// The well-scaling AI workloads reach or beat the discrete system on
	// both axes at 8 nodes (class 3 / the paper's headline).
	for _, name := range []string{"alexnet", "googlenet"} {
		r := d.Row(name, 8)
		if r.NormRuntime > 1.05 {
			t.Errorf("%s@8: runtime vs GTX %.2f, want <= ~1", name, r.NormRuntime)
		}
		if r.NormEnergy > 1.0 {
			t.Errorf("%s@8: energy vs GTX %.2f, want < 1", name, r.NormEnergy)
		}
	}
	// Scalable workloads improve in runtime with size.
	for _, name := range []string{"hpl", "jacobi", "alexnet", "googlenet"} {
		if d.Row(name, 8).NormRuntime >= d.Row(name, 2).NormRuntime {
			t.Errorf("%s: no runtime improvement from 2 to 8 nodes", name)
		}
	}
}

func TestFig10Shapes(t *testing.T) {
	a := Fig10(testOptions())
	for _, name := range []string{"alexnet", "googlenet"} {
		// Speedup and CPU-cycle rate grow with cluster size.
		if a.Row(name, 8).Speedup <= a.Row(name, 2).Speedup {
			t.Errorf("%s: speedup not growing with nodes", name)
		}
		// At 8 nodes the scale-out system wins and leverages more CPU
		// cycles per second than the scale-up system (the Fig. 10 claim).
		if s := a.Row(name, 8).Speedup; s < 1.0 {
			t.Errorf("%s@8: speedup vs scale-up %.2f, want >= 1", name, s)
		}
		if c := a.Row(name, 8).NormCPUCyclesSec; c < 1.2 {
			t.Errorf("%s@8: CPU cycle rate ratio %.2f, want > 1.2", name, c)
		}
	}
}

func TestStaticTables(t *testing.T) {
	for name, s := range map[string]string{"I": Table1(), "V": Table5(), "VII": Table7()} {
		if len(s) == 0 {
			t.Errorf("Table %s empty", name)
		}
	}
	if !strings.Contains(Table5(), "96") || !strings.Contains(Table5(), "Cortex-A57") {
		t.Error("Table V missing the configurations")
	}
	if !strings.Contains(Table7(), "2048") {
		t.Error("Table VII missing the GTX 980 core count")
	}
	if !strings.Contains(Table1(), "hpl") || !strings.Contains(Table1(), "googlenet") {
		t.Error("Table I missing workloads")
	}
}

func TestWeakScalingShapes(t *testing.T) {
	ws := WeakScaling(Options{Scale: 0.05, Sizes: []int{2, 4, 8}})
	if len(ws.Rows) != 4 {
		t.Fatalf("%d rows", len(ws.Rows))
	}
	// Total throughput grows with the cluster...
	for i := 1; i < len(ws.Rows); i++ {
		if ws.Rows[i].ThroughputGFLOPS <= ws.Rows[i-1].ThroughputGFLOPS {
			t.Fatalf("throughput not growing at %d nodes", ws.Rows[i].Nodes)
		}
	}
	// ...and per-node efficiency holds far better than strong scaling
	// would at the same sizes (Tibidabo's regime).
	if eff := ws.Efficiency(); eff < 0.6 || eff > 1.2 {
		t.Fatalf("weak-scaling efficiency %.2f outside the plausible band", eff)
	}
}

func TestRelatedWorkShapes(t *testing.T) {
	rw := RelatedWorkCompare(Options{Scale: 0.05})
	if len(rw.Rows) != 4 {
		t.Fatalf("%d rows", len(rw.Rows))
	}
	// The 8-core X-Gene has a quarter of the ranks: it loses the
	// compute-shaped benchmarks to the cluster (its 2.4 GHz out-of-order
	// cores claw back most, but not all, of the 4x rank deficit).
	for _, name := range []string{"ep", "mg"} {
		if rw.Row(name).NormXGene < 1.05 {
			t.Errorf("%s: X-Gene/TX1 = %.2f, want the cluster ahead", name, rw.Row(name).NormXGene)
		}
	}
	// The communication-heavy benchmarks keep the single boxes closer (or
	// ahead), as in Table VI.
	if rw.Row("ft").NormCavium > 1 {
		t.Errorf("ft should favour the Cavium over the 1GbE cluster (got %.2f)", rw.Row("ft").NormCavium)
	}
	for _, r := range rw.Rows {
		if r.TX1Runtime <= 0 || r.CaviumRuntime <= 0 || r.XGeneRuntime <= 0 {
			t.Fatalf("%s: missing runtimes", r.Workload)
		}
	}
}

// Replay fidelity across real workloads: re-timing a traced run under its
// own network parameters must track the simulated runtime. The replay
// deliberately ignores port contention (DIMEMAS's L1 model), so
// contention-heavy runs (cg's 4-ranks-per-NIC exchanges) come back up to
// ~30% optimistic; everything else sits within ~15%.
func TestReplayIdentityAcrossWorkloads(t *testing.T) {
	for _, pair := range []struct {
		name string
		prof network.Profile
	}{
		{"jacobi", network.TenGigE},
		{"tealeaf3d", network.GigE},
		{"cg", network.TenGigE},
		{"bt", network.GigE},
	} {
		w, _ := workloads.ByName(pair.name)
		cfg := cluster.TX1Cluster(4, pair.prof)
		cfg.RanksPerNode = w.RanksPerNode()
		cfg.Traced = true
		if w.GPUAccelerated() {
			cfg.FileServer = true
		}
		res := cluster.New(cfg).Run(w.Body(workloads.Config{Scale: 0.04}))
		replayed, err := dimemas.Replay(res.Trace, dimemas.Options{Net: dimemas.NICModel(pair.prof)})
		if err != nil {
			t.Fatal(err)
		}
		ratio := replayed / res.Runtime
		if ratio < 0.6 || ratio > 1.2 {
			t.Errorf("%s on %s: identity replay ratio %.3f", pair.name, pair.prof.Name, ratio)
		}
	}
}

// The String renderers and aggregate helpers are part of the CLI surface;
// exercise them all on small runs.
func TestRenderersAndAggregates(t *testing.T) {
	o := Options{Scale: 0.04, Sizes: []int{2, 4}}
	nc := Fig1(o)
	if nc.String() == "" || nc.AverageSpeedup(4) <= 0 {
		t.Error("netchoice rendering/aggregates broken")
	}
	if nc.AverageSpeedup(99) != 0 || nc.AverageEnergyImprovement(99) != 0 {
		t.Error("missing sizes should aggregate to zero")
	}
	_ = nc.AverageEnergyImprovement(4)
	if Fig3(o).String() == "" {
		t.Error("traffic rendering broken")
	}
	if Table2(o).String() == "" {
		t.Error("roofline rendering broken")
	}
	s := Fig5(Options{Scale: 0.04, Sizes: []int{2, 4}})
	if s.String() == "" || s.AverageIdealNetGain() <= 0 || s.AverageIdealLBGain() <= 0 {
		t.Error("scaling rendering/aggregates broken")
	}
	for _, c := range s.Curves {
		if c.IdealLBGain(len(c.Nodes)-1) <= 0 {
			t.Error("LB gain helper broken")
		}
	}
	if Table3(o).String() == "" {
		t.Error("memmodels rendering broken")
	}
	if Fig7(Options{Scale: 0.04, Sizes: []int{2}}).String() == "" {
		t.Error("workratio rendering broken")
	}
	if Table4(Options{Scale: 0.04, Sizes: []int{2}}).String() == "" {
		t.Error("collocation rendering broken")
	}
	cc := Table6(o)
	if cc.String() == "" {
		t.Error("cavium rendering broken")
	}
	if Fig9(Options{Scale: 0.04, Sizes: []int{2}}).String() == "" {
		t.Error("discrete rendering broken")
	}
	if Fig10(Options{Scale: 0.04, Sizes: []int{2}}).String() == "" {
		t.Error("aibalance rendering broken")
	}
	if WeakScaling(Options{Scale: 0.04, Sizes: []int{2}}).String() == "" {
		t.Error("weak-scaling rendering broken")
	}
	if RelatedWorkCompare(Options{Scale: 0.04}).String() == "" {
		t.Error("related-work rendering broken")
	}
	def := DefaultOptions()
	if def.Scale <= 0 || len(def.Sizes) != 4 {
		t.Errorf("default options %+v", def)
	}
	// Missing-row lookups return nil rather than panicking.
	if nc.Row("nope", 2) != nil || Fig3(o).Point("nope", "1GbE") != nil ||
		cc.Row("nope") != nil {
		t.Error("missing-row lookups should be nil")
	}
}
