package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"clustersoc/internal/experiments"
	"clustersoc/internal/runner"
	"clustersoc/internal/sim"
	"clustersoc/internal/simd"
)

func TestDeckIsDeterministicPerSeed(t *testing.T) {
	grid := gridRequests()
	a, err := newDeck(7, grid)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := newDeck(7, grid)
	c, _ := newDeck(8, grid)
	if !slices.Equal(a.stream(0), b.stream(0)) || !slices.Equal(a.stream(5), b.stream(5)) || !slices.Equal(a.warm, b.warm) {
		t.Fatal("one seed drew two different decks")
	}
	if slices.Equal(a.stream(0), c.stream(0)) || slices.Equal(a.warm, c.warm) {
		t.Fatal("two seeds drew the same deck")
	}
	if slices.Equal(a.stream(0), a.stream(1)) {
		t.Fatal("two passes drew the same order")
	}
	// Every pass touches every key and half the keys are warm, so the tier
	// counts, and with them the work of a pass, depend on neither the seed
	// nor the pass.
	ta, tc := a.tiers(a.stream(0)), c.tiers(c.stream(3))
	if ta[runner.SourceSimulated] != len(grid)/2 || ta[runner.SourceStore] != len(grid)/2 || ta[runner.SourceMemory] != deckRepeats*len(grid) {
		t.Fatalf("tiers %v, want %d simulated and stored and %d from memory", ta, len(grid)/2, deckRepeats*len(grid))
	}
	for src, n := range ta {
		if tc[src] != n {
			t.Fatalf("tier counts differ across seeds: %v vs %v", ta, tc)
		}
	}
}

// smallDeck is a two-workload grid that simulates in milliseconds.
func smallDeck(t *testing.T, seed int64) *deck {
	t.Helper()
	var grid []simd.Request
	for _, w := range []string{"ep", "mg"} {
		for _, n := range []int{2, 4} {
			for _, sc := range deckScales {
				for _, net := range deckNets {
					grid = append(grid, simd.Request{Workload: w, Nodes: n, Network: net, Scale: sc})
				}
			}
		}
	}
	d, err := newDeck(seed, grid)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestPredictedTiersMatchALiveRun(t *testing.T) {
	d := smallDeck(t, 3)
	c := config{nproc: 2, work: t.TempDir()}
	template := filepath.Join(c.work, "template")
	if err := warmStore(c, d, template); err != nil {
		t.Fatal(err)
	}
	sums := map[string][sha256.Size]byte{}
	var digests []string
	for pass := 0; pass < 2; pass++ {
		stream := d.stream(pass)
		bodies, err := d.bodies(stream)
		if err != nil {
			t.Fatal(err)
		}
		dir := filepath.Join(c.work, fmt.Sprintf("pass-%d", pass))
		if err := copyStore(template, dir); err != nil {
			t.Fatal(err)
		}
		p, err := servePassRun(c, bodies, dir, pass, false)
		if err != nil {
			t.Fatal(err)
		}
		rep := newReport()
		failed, digest := checkServePass(rep, d, stream, p, pass, sums)
		if failed != 0 || len(rep.problems) != 0 {
			t.Fatalf("pass %d: %d failed, problems %v", pass, failed, rep.problems)
		}
		digests = append(digests, digest)

		// The same pass held to a wrong prediction must fail.
		wrong := *d
		wrong.warm = slices.Clone(d.warm)
		wrong.warm[0] = !wrong.warm[0]
		rep = newReport()
		checkServePass(rep, &wrong, stream, p, pass, sums)
		if len(rep.problems) == 0 {
			t.Fatal("a wrong tier prediction passed the check")
		}
	}
	if digests[0] != digests[1] {
		t.Fatalf("dump digest moved between passes: %s vs %s", digests[0], digests[1])
	}
}

func TestPerturbedArtifactFailsTheDigest(t *testing.T) {
	o := experiments.DefaultOptions()
	o.Scale = suiteScale
	o.Runner = runner.New(2)
	arts := experiments.Artifacts(o)
	var buf bytes.Buffer
	if err := experiments.WriteArtifactsJSON(&buf, arts); err != nil {
		t.Fatal(err)
	}
	if err := checkDigest(buf.Bytes(), suiteDigest); err != nil {
		t.Fatalf("the pinned digest is stale: %v", err)
	}
	// A pass calls the generators one at a time; that must build the same
	// bytes as Artifacts and time one answer per submitted scenario.
	o.Runner = runner.New(2)
	var own bytes.Buffer
	var p suitePass
	if _, err := artifacts(nil, o, nil, &own, &p, time.Now()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(own.Bytes(), buf.Bytes()) {
		t.Fatal("the generator list builds other artifacts than experiments.Artifacts")
	}
	s := o.Runner.Stats()
	if len(p.latMs) != s.Submitted || len(p.coldMs) != s.Simulated {
		t.Fatalf("%d latencies and %d cold ones for %d submitted and %d simulated scenarios",
			len(p.latMs), len(p.coldMs), s.Submitted, s.Simulated)
	}
	perturbed := bytes.Replace(buf.Bytes(), []byte("1"), []byte("2"), 1)
	if checkDigest(perturbed, suiteDigest) == nil {
		t.Fatal("a changed digit passed the digest check")
	}
	delete(arts, "weak")
	buf.Reset()
	if err := experiments.WriteArtifactsJSON(&buf, arts); err != nil {
		t.Fatal(err)
	}
	if checkDigest(buf.Bytes(), suiteDigest) == nil {
		t.Fatal("a missing artifact passed the digest check")
	}
}

// TestCalendarProbeHoldsItsDepth checks that sim.calendar_depth_ns measures
// what it names. Mid-run, each window of one period fires exactly depth
// events, so depth events were pending when it opened; the calendar never
// grows past depth; and a run fires the n events the probe divides by.
func TestCalendarProbeHoldsItsDepth(t *testing.T) {
	const depth = calendarDepth
	const n = 50 * depth
	e := sim.NewEngine()
	calendarAtDepth(e, n, depth)
	period := float64(depth) * 1e-3
	for _, k := range []float64{10, 25, 40} {
		// A half-slot offset keeps the window's edges off event times.
		from := k*period + 0.5e-3
		e.RunUntil(from)
		before := e.Events()
		e.RunUntil(from + period)
		if got := e.Events() - before; got != depth {
			t.Fatalf("period %v fired %d events, want the standing depth %d", k, got, depth)
		}
	}
	e.Run()
	if e.Events() != n || e.QueueHighWater() != depth {
		t.Fatalf("fired %d events at a high water of %d, want %d at %d", e.Events(), e.QueueHighWater(), n, depth)
	}
}

// TestBenchmarkJSONNamesEveryMetric keeps BENCHMARK.json and the metrics
// the benchmark reports in step.
func TestBenchmarkJSONNamesEveryMetric(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, listed []struct{ Name, Unit string }, reported []struct{ name, unit string }) {
		if len(listed) != len(reported) {
			t.Fatalf("BENCHMARK.json lists %d %s metrics, the benchmark reports %d", len(listed), kind, len(reported))
		}
		for i, m := range listed {
			if m.Name != reported[i].name || m.Unit != reported[i].unit {
				t.Errorf("%s metric %d: BENCHMARK.json has %s (%s), the benchmark %s (%s)",
					kind, i, m.Name, m.Unit, reported[i].name, reported[i].unit)
			}
		}
	}
	same("end-to-end", spec.EndToEnd, endToEndMetrics)
	same("per-layer", spec.PerLayer, layerMetrics)
}
