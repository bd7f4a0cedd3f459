package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"
)

// quantile returns the q-quantile of xs, interpolating linearly between
// the closest ranks; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// medians reduces one sample map per pass to the per-key median.
func medians(passes []map[string]float64) map[string]float64 {
	byKey := map[string][]float64{}
	for _, p := range passes {
		for k, v := range p {
			byKey[k] = append(byKey[k], v)
		}
	}
	out := make(map[string]float64, len(byKey))
	for k, vs := range byKey {
		out[k] = median(vs)
	}
	return out
}

// endToEndMetrics is every end-to-end metric, with its unit.
var endToEndMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"qps", "1/s"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"cold_p50_ms", "ms"},
	{"cold_p90_ms", "ms"},
	{"retained_heap_mb", "MB"},
}

// passSample is one pass's end-to-end values, given the latencies of its
// answers and of the cold ones among them.
func passSample(wall time.Duration, heapMB float64, latMs, coldMs []float64) map[string]float64 {
	return map[string]float64{
		"wall_s":           wall.Seconds(),
		"qps":              float64(len(latMs)) / wall.Seconds(),
		"p50_ms":           quantile(latMs, 0.5),
		"p99_ms":           quantile(latMs, 0.99),
		"cold_p50_ms":      quantile(coldMs, 0.5),
		"cold_p90_ms":      quantile(coldMs, 0.9),
		"retained_heap_mb": heapMB,
	}
}

// untracedLoop runs passes for the given time and reports every
// end-to-end metric: the median set-up time and, for the others, the
// median over the passes of each pass's own value.
func untracedLoop(rep *report, setups []float64, budget time.Duration, pass func(i int) (map[string]float64, error)) error {
	var samples []map[string]float64
	for start := time.Now(); another(start, len(samples), budget); {
		s, err := pass(len(samples))
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "hostbench: pass %d took %.3fs\n", len(samples), s["wall_s"])
		samples = append(samples, s)
	}
	values := medians(samples)
	values["setup_s"] = median(setups)
	for _, m := range endToEndMetrics {
		rep.set(m.name, values[m.name], m.unit)
	}
	return nil
}

// heapMB forces a collection and returns the heap still in use, in MiB.
// Callers keep the runner or server they measure reachable across it.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// allocMeter reports the Go runtime's allocation and GC work since start.
type allocMeter struct{ start runtime.MemStats }

func newAllocMeter() *allocMeter {
	m := &allocMeter{}
	runtime.ReadMemStats(&m.start)
	return m
}

// sample returns runtime.alloc_mb and runtime.gc_cycles since start.
func (m *allocMeter) sample() map[string]float64 {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	return map[string]float64{
		"runtime.alloc_mb":  float64(now.TotalAlloc-m.start.TotalAlloc) / (1 << 20),
		"runtime.gc_cycles": float64(now.NumGC - m.start.NumGC),
	}
}

// span is one timed call across a layer boundary. Spans of one request
// share Request; Parent is the ID of the span that caused it (0 for none).
type span struct {
	ID      int                `json:"id"`
	Parent  int                `json:"parent,omitempty"`
	Name    string             `json:"name"`
	Request string             `json:"request,omitempty"`
	StartMs float64            `json:"start_ms"`
	EndMs   float64            `json:"end_ms"`
	Attrs   map[string]float64 `json:"attrs,omitempty"`
}

// tracer keeps a traced run's spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	// first maps a request ID to the first span opened for it.
	first map[string]int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), first: map[string]int{}} }

// begin opens a span and returns its ID. A span without a parent joins
// the first span already opened for its request, which is how a server
// span is correlated with the client call that caused it.
func (t *tracer) begin(name string, parent int, request string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	if request != "" {
		if first, ok := t.first[request]; ok && parent == 0 {
			parent = first
		} else if !ok {
			t.first[request] = id
		}
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Request: request, StartMs: t.ms(time.Now())})
	return id
}

// end closes span id, attaching the counts measured across it.
func (t *tracer) end(id int, attrs map[string]float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].EndMs = t.ms(time.Now())
	t.spans[id-1].Attrs = attrs
}

// ms converts a wall-clock instant to milliseconds since the run began.
func (t *tracer) ms(at time.Time) float64 { return float64(at.Sub(t.t0)) / float64(time.Millisecond) }

// write saves the spans with the host metadata as one JSON document.
func (t *tracer) write(path string, h host) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.MarshalIndent(map[string]any{"host": h, "spans": t.spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// tracedLoop alternates untraced and traced passes for the given time
// and returns the per-layer medians of the traced passes, with the tracing
// overhead: how much longer a traced pass took than an untraced one.
func tracedLoop(budget time.Duration, pass func(i int, traced bool) (time.Duration, map[string]float64, error)) (map[string]float64, error) {
	var plain, traced []float64
	var samples []map[string]float64
	for start := time.Now(); another(start, len(traced), budget); {
		wall, _, err := pass(len(plain)+len(traced), false)
		if err != nil {
			return nil, err
		}
		plain = append(plain, wall.Seconds())
		wall, layer, err := pass(len(plain)+len(traced), true)
		if err != nil {
			return nil, err
		}
		traced = append(traced, wall.Seconds())
		samples = append(samples, layer)
	}
	layer := medians(samples)
	layer["trace.overhead_pct"] = 100 * (ratio(median(traced), median(plain)) - 1)
	return layer, nil
}

// another reports whether a measurement loop that began at start should
// run another pass: always a first one, then while time remains.
func another(start time.Time, passes int, budget time.Duration) bool {
	return passes == 0 || time.Since(start) < budget
}
