package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"clustersoc/internal/obs"
	"clustersoc/internal/runner"
	"clustersoc/internal/simd"
	"clustersoc/internal/store"
)

// serveDigest pins the SHA-256 of a pass's fingerprint-sorted dump, one
// "fingerprint<TAB>sha256(result JSON)" line per grid key. Every pass
// touches every key, so the dump is the same for every seed.
const serveDigest = "99e57d832be55e8138e11a81a2192e3e5e83e4d39bba6f481d59cc5f22c08a11"

// observed is one NDJSON response line as the client saw it.
type observed struct {
	fp     string
	source string
	// ms is the time from the batch's POST to this line.
	ms  float64
	sum [sha256.Size]byte
	err string
}

// batchOutcome is one POST of a batch.
type batchOutcome struct {
	status int
	lines  []observed
	// ms is the time from the POST to the last line.
	ms    float64
	bytes int
	err   error
}

// servePass is one pass of the deck through a fresh server.
type servePass struct {
	wall    time.Duration
	batches []batchOutcome
	stats   runner.Stats
	store   store.Counters
	heapMB  float64
	// layer holds a traced pass's per-layer samples.
	layer map[string]float64
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// post sends one batch and times every line against the POST.
func post(client *http.Client, url string, body []byte, id string, tr *tracer, parent int) batchOutcome {
	var o batchOutcome
	if tr != nil {
		span := tr.begin("client.batch", parent, id)
		defer func() { tr.end(span, map[string]float64{"lines": float64(len(o.lines)), "bytes": float64(o.bytes)}) }()
	}
	req, err := http.NewRequest(http.MethodPost, url+"/simulate", bytes.NewReader(body))
	if err != nil {
		o.err = err
		return o
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", id)
	posted := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		o.err = err
		return o
	}
	defer resp.Body.Close()
	o.status = resp.StatusCode
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return o
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		took := time.Since(posted)
		o.bytes += len(sc.Bytes()) + 1
		var l struct {
			Fingerprint string          `json:"fingerprint"`
			Source      string          `json:"source"`
			Result      json.RawMessage `json:"result"`
			Error       string          `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			o.err = fmt.Errorf("undecodable line: %w", err)
			break
		}
		o.lines = append(o.lines, observed{fp: l.Fingerprint, source: l.Source, ms: millis(took), sum: sha256.Sum256(l.Result), err: l.Error})
	}
	if err := sc.Err(); err != nil && o.err == nil {
		o.err = err
	}
	o.ms = millis(time.Since(posted))
	return o
}

// servePassRun starts a fresh runner and simd.Server over the store at
// dir on a loopback listener, and has nproc clients post the batches in a
// closed loop until all are answered.
func servePassRun(c config, bodies [][]byte, dir string, pass int, traced bool) (servePass, error) {
	var p servePass
	r := runner.New(c.nproc)
	st, err := runner.OpenStore(dir)
	if err != nil {
		return p, err
	}
	r.SetStore(st)
	srv, err := simd.NewServer(simd.Config{Runner: r})
	if err != nil {
		return p, err
	}
	h := srv.Handler()
	var (
		mu        sync.Mutex
		handlerMs []float64
	)
	if traced {
		// A bench-owned wrapper times the handler; its span joins the
		// client span of the same request ID.
		inner := h
		h = http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			if req.URL.Path != "/simulate" {
				inner.ServeHTTP(w, req)
				return
			}
			id := c.tr.begin("simd.handler", 0, req.Header.Get("X-Request-Id"))
			start := time.Now()
			inner.ServeHTTP(w, req)
			d := time.Since(start)
			c.tr.end(id, nil)
			mu.Lock()
			handlerMs = append(handlerMs, millis(d))
			mu.Unlock()
		})
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return p, err
	}
	hs := &http.Server{Handler: h}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	transport := &http.Transport{MaxIdleConnsPerHost: c.nproc}
	client := &http.Client{Transport: transport}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		hs.Shutdown(ctx)
		<-served
		transport.CloseIdleConnections()
	}()
	url := "http://" + ln.Addr().String()

	var usage0 storeUsage
	if traced {
		usage0 = usageOf(dir)
	}
	p.batches = make([]batchOutcome, len(bodies))
	runtime.GC()
	meter := newAllocMeter()
	var tr *tracer
	var root int
	if traced {
		tr = c.tr
		root = tr.begin("serve.pass", 0, "")
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for k := 0; k < c.nproc; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(bodies) {
					return
				}
				p.batches[i] = post(client, url, bodies[i], fmt.Sprintf("p%d-b%d", pass, i), tr, root)
			}
		}()
	}
	wg.Wait()
	p.wall = time.Since(start)
	p.stats = r.Stats()
	p.store = st.Counters()
	if traced {
		p.layer = meter.sample()
		for k, v := range runnerLayer(p.stats) {
			p.layer[k] = v
		}
		for k, v := range storeLayer(st, dir, usage0, p.store) {
			p.layer[k] = v
		}
		mu.Lock()
		for k, v := range serveLayer(p.batches, handlerMs) {
			p.layer[k] = v
		}
		mu.Unlock()
		// The server is fresh, so its /statusz counts are this pass's deltas.
		status, err := statusz(client, url)
		if err != nil {
			return p, err
		}
		attrs := map[string]float64{}
		for _, m := range status.Metrics {
			attrs[m.Name] = m.Value
		}
		tr.end(root, attrs)
		p.layer["simd.rejected"] = attrs["simd.rejected_queue"] + attrs["simd.rejected_rate"] + attrs["simd.rejected_batch"]
		p.layer["simd.coalesced"] = attrs["simd.coalesced"]
	}
	p.heapMB = heapMB()
	runtime.KeepAlive(srv)
	return p, nil
}

// statusz reads the server's merged counters.
func statusz(client *http.Client, url string) (obs.Snapshot, error) {
	resp, err := client.Get(url + "/statusz")
	if err != nil {
		return obs.Snapshot{}, err
	}
	defer resp.Body.Close()
	var st simd.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return obs.Snapshot{}, fmt.Errorf("statusz: %w", err)
	}
	return st.Metrics, nil
}

// serveLayer derives the tier and serving-layer latencies of one pass.
func serveLayer(batches []batchOutcome, handlerMs []float64) map[string]float64 {
	bySource := map[string][]float64{}
	var batchMs []float64
	lines, bytes := 0, 0
	for _, b := range batches {
		batchMs = append(batchMs, b.ms)
		bytes += b.bytes
		for _, l := range b.lines {
			bySource[l.source] = append(bySource[l.source], l.ms)
			lines++
		}
	}
	return map[string]float64{
		"runner.tier_memory_p50_ms": quantile(bySource[runner.SourceMemory], 0.5),
		"runner.tier_memory_p99_ms": quantile(bySource[runner.SourceMemory], 0.99),
		"runner.tier_store_p50_ms":  quantile(bySource[runner.SourceStore], 0.5),
		"runner.tier_store_p90_ms":  quantile(bySource[runner.SourceStore], 0.9),
		"simd.handler_p50_ms":       quantile(handlerMs, 0.5),
		"simd.handler_p99_ms":       quantile(handlerMs, 0.99),
		"simd.batch_p50_ms":         quantile(batchMs, 0.5),
		"simd.resp_bytes_per_line":  ratio(float64(bytes), float64(lines)),
	}
}

// dumpDigest hashes the fingerprint-sorted dump of result digests.
func dumpDigest(sums map[string][sha256.Size]byte) string {
	fps := make([]string, 0, len(sums))
	for fp := range sums {
		fps = append(fps, fp)
	}
	sort.Strings(fps)
	h := sha256.New()
	for _, fp := range fps {
		fmt.Fprintf(h, "%s\t%x\n", fp, sums[fp])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// checkServePass holds one pass to the deck: every batch admitted, every
// line answered, duplicates byte-identical (within and across passes,
// via sums) and tier counts as predicted. It returns the number of
// failed requests and the digest of the pass's dump.
func checkServePass(rep *report, d *deck, stream []int, p servePass, pass int, sums map[string][sha256.Size]byte) (int, string) {
	failed := 0
	passSums := map[string][sha256.Size]byte{}
	got := map[string]int{}
	for i, b := range p.batches {
		want := min(deckBatch, len(stream)-i*deckBatch)
		if b.err != nil || b.status != http.StatusOK {
			rep.check(false, "pass %d batch %d: status %d, %v", pass, i, b.status, b.err)
			failed += want
			continue
		}
		if len(b.lines) != want {
			rep.check(false, "pass %d batch %d: %d lines for %d requests", pass, i, len(b.lines), want)
			failed += max(0, want-len(b.lines))
		}
		for _, l := range b.lines {
			if l.err != "" {
				rep.check(false, "pass %d: %s failed: %s", pass, l.fp, l.err)
				failed++
				continue
			}
			got[l.source]++
			if prev, ok := sums[l.fp]; ok && prev != l.sum {
				rep.check(false, "pass %d: %s result bytes diverge between responses", pass, l.fp)
				failed++
				continue
			}
			sums[l.fp] = l.sum
			passSums[l.fp] = l.sum
		}
	}
	want := d.tiers(stream)
	for _, src := range []string{runner.SourceMemory, runner.SourceStore, runner.SourceSimulated} {
		rep.check(got[src] == want[src], "pass %d: %d lines from %s, the deck predicts %d", pass, got[src], src, want[src])
	}
	return failed, dumpDigest(passSums)
}

// warmStore pre-warms a store at dir with the deck's warmed keys.
func warmStore(c config, d *deck, dir string) error {
	r := runner.New(c.nproc)
	st, err := runner.OpenStore(dir)
	if err != nil {
		return err
	}
	r.SetStore(st)
	var scenarios []runner.Scenario
	for _, q := range d.warmRequests() {
		sc, err := q.Resolve()
		if err != nil {
			return err
		}
		scenarios = append(scenarios, sc)
	}
	_, err = r.RunAll(scenarios)
	return err
}

// copyStore copies a store directory tree; each pass gets a fresh copy
// of the warmed store, so every pass sees the same tier mix.
func copyStore(from, to string) error {
	return filepath.WalkDir(from, func(path string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(from, path)
		if err != nil {
			return err
		}
		dst := filepath.Join(to, rel)
		if e.IsDir() {
			return os.MkdirAll(dst, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(dst, data, 0o644)
	})
}

// runServe drives the serve workload.
func runServe(c config, rep *report) error {
	d, err := newDeck(c.seed, gridRequests())
	if err != nil {
		return err
	}
	reps := setupReps
	if c.traced {
		reps = 1
	}
	var setups []float64
	template := ""
	for i := 0; i < reps; i++ {
		if template != "" {
			os.RemoveAll(template)
		}
		template = filepath.Join(c.work, fmt.Sprintf("serve-store-%d", i))
		start := time.Now()
		if err := warmStore(c, d, template); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	sums := map[string][sha256.Size]byte{}
	pass := func(i int, traced bool) (servePass, error) {
		stream := d.stream(i)
		bodies, err := d.bodies(stream)
		if err != nil {
			return servePass{}, err
		}
		dir := filepath.Join(c.work, fmt.Sprintf("serve-pass-%d", i))
		defer os.RemoveAll(dir)
		if err := copyStore(template, dir); err != nil {
			return servePass{}, err
		}
		p, err := servePassRun(c, bodies, dir, i, traced)
		if err != nil {
			return p, err
		}
		rep.attempted += len(stream)
		failed, digest := checkServePass(rep, d, stream, p, i, sums)
		rep.failed += failed
		rep.check(digest == serveDigest, "pass %d: dump digest %s, pinned %s", i, digest, serveDigest)
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
		var all, cold []float64
		for _, b := range p.batches {
			for _, l := range b.lines {
				all = append(all, l.ms)
				if l.source == runner.SourceSimulated {
					cold = append(cold, l.ms)
				}
			}
		}
		return passSample(p.wall, p.heapMB, all, cold), nil
	})
}
