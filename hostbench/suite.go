package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"clustersoc/internal/experiments"
	"clustersoc/internal/runner"
	"clustersoc/internal/store"
)

// suiteDigest pins the SHA-256 of experiments.WriteArtifactsJSON over
// experiments.Artifacts at suiteScale. Simulations are deterministic, so
// any other digest is a wrong answer, whichever tier served it.
const suiteDigest = "2fd73d42a28ad2176b5417b476074da4dd170dacec2a444fc8a8c4294921a8b0"

// generators are experiments.Artifacts' calls under its keys, in the
// order Artifacts makes them. A pass calls them one at a time to time
// each; its output must still match suiteDigest, which proves the list
// matches Artifacts.
var generators = []struct {
	key string
	run func(experiments.Options) any
}{
	{"fig1_fig2", func(o experiments.Options) any { return experiments.Fig1(o) }},
	{"fig3", func(o experiments.Options) any { return experiments.Fig3(o) }},
	{"table2_fig4", func(o experiments.Options) any { return experiments.Table2(o) }},
	{"fig5", func(o experiments.Options) any { return experiments.Fig5(o) }},
	{"fig6", func(o experiments.Options) any { return experiments.Fig6(o) }},
	{"table3", func(o experiments.Options) any { return experiments.Table3(o) }},
	{"fig7", func(o experiments.Options) any { return experiments.Fig7(o) }},
	{"table4", func(o experiments.Options) any { return experiments.Table4(o) }},
	{"table6_fig8", func(o experiments.Options) any { return experiments.Table6(o) }},
	{"fig9", func(o experiments.Options) any { return experiments.Fig9(o) }},
	{"fig10", func(o experiments.Options) any { return experiments.Fig10(o) }},
	{"related", func(o experiments.Options) any { return experiments.RelatedWorkCompare(o) }},
	{"weak", func(o experiments.Options) any { return experiments.WeakScaling(o) }},
}

// checkDigest reports whether artifact JSON matches the pinned digest.
func checkDigest(artifactJSON []byte, want string) error {
	if got := fmt.Sprintf("%x", sha256.Sum256(artifactJSON)); got != want {
		return fmt.Errorf("artifact JSON digest %s, pinned %s", got, want)
	}
	return nil
}

// suitePass is one full regeneration on a fresh runner.
type suitePass struct {
	wall   time.Duration
	json   []byte
	stats  runner.Stats
	store  store.Counters
	heapMB float64
	// latMs holds one latency per submitted scenario: the time from the
	// pass's start to the return of the generator that submitted it.
	latMs []float64
	// coldMs is latMs restricted to the scenarios the runner's memory
	// did not answer: simulated on suite-cold, read from the store on
	// suite-warm.
	coldMs []float64
	// layer holds a traced pass's per-layer samples.
	layer map[string]float64
}

// regenerate builds what experiments.Artifacts builds on a fresh
// runner.New(nproc), over a store at dir unless dir is empty, and encodes
// the result as cmd/experiments -json does.
func regenerate(c config, dir string, traced bool) (suitePass, error) {
	var p suitePass
	r := runner.New(c.nproc)
	var st *store.Store
	if dir != "" {
		var err error
		if st, err = runner.OpenStore(dir); err != nil {
			return p, err
		}
		r.SetStore(st)
	}
	o := experiments.DefaultOptions()
	o.Scale = suiteScale
	o.Runner = r

	var usage0 storeUsage
	if traced && st != nil {
		usage0 = usageOf(dir)
	}
	// Every pass starts from a collected heap, so none pays for the
	// garbage of the one before.
	runtime.GC()
	meter := newAllocMeter()
	var buf bytes.Buffer
	var tr *tracer
	if traced {
		tr = c.tr
	}
	start := time.Now()
	arts, err := artifacts(tr, o, st, &buf, &p, start)
	p.wall = time.Since(start)
	if err != nil {
		return p, err
	}
	p.json = buf.Bytes()
	p.stats = r.Stats()
	if st != nil {
		p.store = st.Counters()
	}
	if traced {
		for k, v := range meter.sample() {
			p.layer[k] = v
		}
		for k, v := range runnerLayer(p.stats) {
			p.layer[k] = v
		}
		if st != nil {
			for k, v := range storeLayer(st, dir, usage0, p.store) {
				p.layer[k] = v
			}
		}
	}
	p.heapMB = heapMB()
	runtime.KeepAlive(r)
	runtime.KeepAlive(arts)
	return p, nil
}

// artifacts builds the Artifacts map generator by generator and encodes
// it into buf. Every scenario a generator submits is answered when the
// generator returns, so each gets that time since start as its latency.
// With a tracer it also records a span around each call carrying the
// runner and store deltas it caused, and the per-generator times.
func artifacts(tr *tracer, o experiments.Options, st *store.Store, buf *bytes.Buffer, p *suitePass, start time.Time) (map[string]any, error) {
	var root int
	if tr != nil {
		p.layer = map[string]float64{}
		root = tr.begin("suite.pass", 0, "")
	}
	arts := make(map[string]any, len(generators))
	for _, g := range generators {
		s0, c0 := o.Runner.Stats(), counters(st)
		var id int
		if tr != nil {
			id = tr.begin("experiments."+g.key, root, "")
		}
		t := time.Now()
		arts[g.key] = g.run(o)
		done := time.Now()
		s1 := o.Runner.Stats()
		ms := millis(done.Sub(start))
		for i := s0.Submitted; i < s1.Submitted; i++ {
			p.latMs = append(p.latMs, ms)
		}
		for i := s0.Submitted - s0.Hits; i < s1.Submitted-s1.Hits; i++ {
			p.coldMs = append(p.coldMs, ms)
		}
		if tr != nil {
			p.layer["experiments."+g.key+"_s"] = done.Sub(t).Seconds()
			tr.end(id, deltas(s0, s1, c0, counters(st)))
		}
	}
	if tr == nil {
		return arts, experiments.WriteArtifactsJSON(buf, arts)
	}
	id := tr.begin("experiments.json", root, "")
	t := time.Now()
	err := experiments.WriteArtifactsJSON(buf, arts)
	p.layer["experiments.json_s"] = time.Since(t).Seconds()
	tr.end(id, nil)
	tr.end(root, deltas(runner.Stats{}, o.Runner.Stats(), store.Counters{}, counters(st)))
	return arts, err
}

func counters(st *store.Store) store.Counters {
	if st == nil {
		return store.Counters{}
	}
	return st.Counters()
}

// deltas are the runner and store counts a span caused.
func deltas(s0, s1 runner.Stats, c0, c1 store.Counters) map[string]float64 {
	return map[string]float64{
		"runner.submitted":    float64(s1.Submitted - s0.Submitted),
		"runner.simulated":    float64(s1.Simulated - s0.Simulated),
		"runner.memory_hits":  float64(s1.Hits - s0.Hits),
		"runner.sim_busy_s":   s1.WallSeconds - s0.WallSeconds,
		"runner.store_hits":   float64(s1.StoreHits - s0.StoreHits),
		"runner.store_misses": float64(s1.StoreMisses - s0.StoreMisses),
		"runner.store_writes": float64(s1.StoreWrites - s0.StoreWrites),
		"store.hits":          float64(c1.Hits - c0.Hits),
		"store.misses":        float64(c1.Misses - c0.Misses),
		"store.writes":        float64(c1.Writes - c0.Writes),
		"store.corrupt":       float64(c1.Corrupt - c0.Corrupt),
	}
}

// runnerLayer is the runner's per-layer sample of one pass.
func runnerLayer(s runner.Stats) map[string]float64 {
	return map[string]float64{
		"runner.submitted":     float64(s.Submitted),
		"runner.simulated":     float64(s.Simulated),
		"runner.memory_hits":   float64(s.Hits),
		"runner.dedup_ratio":   ratio(float64(s.Hits), float64(s.Submitted)),
		"runner.sim_busy_s":    s.WallSeconds,
		"runner.max_in_flight": float64(s.MaxInFlight),
		"runner.store_hits":    float64(s.StoreHits),
		"runner.store_misses":  float64(s.StoreMisses),
		"runner.store_writes":  float64(s.StoreWrites),
	}
}

// runSuite drives suite-cold (warm false) or suite-warm (warm true).
func runSuite(c config, rep *report, warm bool) error {
	// Set-up. suite-cold regenerates once without a store, so lazy
	// initialisation and heap growth are done before timing; suite-warm
	// regenerates into an empty store, which leaves the warm store its
	// passes read. Each time the output must already match the pin.
	reps := setupReps
	if c.traced {
		reps = 1
	}
	var setups []float64
	var template string
	distinct := 0
	for i := 0; i < reps; i++ {
		dir := ""
		if warm {
			if template != "" {
				os.RemoveAll(template)
			}
			dir = filepath.Join(c.work, fmt.Sprintf("warm-store-%d", i))
			template = dir
		}
		start := time.Now()
		p, err := regenerate(c, dir, false)
		setups = append(setups, time.Since(start).Seconds())
		if err != nil {
			return err
		}
		err = checkDigest(p.json, suiteDigest)
		rep.check(err == nil, "set-up regeneration: %v", err)
		distinct = p.stats.Simulated
	}
	rep.check(distinct > 0, "set-up simulated no scenarios")

	// One pass: a fresh runner, over a fresh empty store (cold) or the
	// warm store (warm), checked against the pin and the tier accounting.
	pass := func(i int, traced bool) (suitePass, error) {
		dir := template
		if !warm {
			dir = filepath.Join(c.work, fmt.Sprintf("cold-store-%d", i))
			defer os.RemoveAll(dir)
		}
		p, err := regenerate(c, dir, traced)
		if err != nil {
			return p, err
		}
		rep.attempted += p.stats.Submitted
		before := len(rep.problems)
		err = checkDigest(p.json, suiteDigest)
		rep.check(err == nil, "pass %d: %v", i, err)
		if warm {
			rep.check(p.stats.Simulated == 0 && p.stats.StoreHits == distinct && p.stats.StoreCorrupt == 0 && p.store.Corrupt == 0,
				"pass %d: warm pass simulated %d, %d store hits (want 0 and %d), %d+%d corrupt",
				i, p.stats.Simulated, p.stats.StoreHits, distinct, p.stats.StoreCorrupt, p.store.Corrupt)
		} else {
			rep.check(p.stats.Simulated == distinct && p.stats.StoreWrites == distinct,
				"pass %d: cold pass simulated %d and wrote %d, want %d each", i, p.stats.Simulated, p.stats.StoreWrites, distinct)
		}
		if len(rep.problems) > before {
			rep.failed += p.stats.Submitted
		}
		if traced {
			probe, err := probeStore(c, dir)
			rep.check(err == nil, "pass %d: %v", i, err)
			for k, v := range probe {
				p.layer[k] = v
			}
		}
		return p, nil
	}

	if c.traced {
		layer, err := tracedLoop(c.seconds, func(i int, traced bool) (time.Duration, map[string]float64, error) {
			p, err := pass(i, traced)
			return p.wall, p.layer, err
		})
		if err != nil {
			return err
		}
		return reportLayer(c, rep, layer)
	}
	return untracedLoop(rep, setups, c.seconds, func(i int) (map[string]float64, error) {
		p, err := pass(i, false)
		if err != nil {
			return nil, err
		}
		return passSample(p.wall, p.heapMB, p.latMs, p.coldMs), nil
	})
}
