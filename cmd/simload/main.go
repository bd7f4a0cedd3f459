// Command simload drives a running simd server and reports sustained
// throughput, tail latency, and cache-tier accounting — the tool behind
// the warm/cold QPS study in EXPERIMENTS.md and the CI warm-path check.
//
// It cycles a deck of scenario requests (workloads x cluster sizes)
// across concurrent clients, each POSTing NDJSON batches and timing
// every response line. 429 refusals honour Retry-After. The summary
// counts responses by serving tier, so a warm run is provable: against a
// pre-warmed store every line reports store or memory and the final
// line says "0 simulated".
//
//	simload -addr http://localhost:8080 -duration 5s
//	simload -workloads cg,mg -sizes 2,4,6,8 -scale 0.05 -dump warm.tsv
//
// -dump writes one "fingerprint<TAB>result-JSON" line per distinct
// scenario, sorted by fingerprint: two runs against the same store must
// produce byte-identical dumps (cmp(1) in CI), and any in-run divergence
// between duplicate responses is an error.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"clustersoc/internal/runner"
	"clustersoc/internal/simd"
)

func main() {
	var (
		addr      = flag.String("addr", "http://localhost:8080", "simd server base URL")
		clients   = flag.Int("clients", 4, "concurrent client connections")
		duration  = flag.Duration("duration", 3*time.Second, "how long to keep posting batches")
		batchSize = flag.Int("batch", 8, "scenarios per POST")
		workloads = flag.String("workloads", "cg,mg,ft,lu", "comma-separated workload deck")
		sizes     = flag.String("sizes", "2,4,6,8", "comma-separated cluster sizes")
		netName   = flag.String("network", "10GbE", "NIC for every request")
		scale     = flag.Float64("scale", 0.08, "problem scale for every request")
		dump      = flag.String("dump", "", "write fingerprint-sorted result lines to this file (byte-identical across runs on one store)")
		reqWarm   = flag.Bool("require-warm", false, "exit 1 if any response was freshly simulated")
	)
	flag.Parse()
	switch {
	case *clients < 1:
		usageError("-clients must be at least 1, got %d", *clients)
	case *batchSize < 1:
		usageError("-batch must be at least 1, got %d", *batchSize)
	case *duration <= 0:
		usageError("-duration must be positive, got %s", *duration)
	}

	deck := buildDeck(*workloads, *sizes, *netName, *scale)
	if len(deck) == 0 {
		fmt.Fprintln(os.Stderr, "simload: empty request deck")
		os.Exit(2)
	}

	agg := &aggregate{counts: map[string]int{}, results: map[string][]byte{}}
	start := time.Now()
	deadline := start.Add(*duration)
	var wg sync.WaitGroup
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client(c, *addr, deck, *batchSize, deadline, agg)
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	if *dump != "" {
		if err := agg.writeDump(*dump); err != nil {
			fmt.Fprintln(os.Stderr, "simload:", err)
			os.Exit(1)
		}
	}
	fmt.Print(agg.report(elapsed))
	if agg.errs > 0 {
		os.Exit(1)
	}
	if len(agg.latencies) == 0 {
		// A run that observed nothing proves nothing, warm path included.
		fmt.Fprintln(os.Stderr, "simload: no response line arrived")
		os.Exit(1)
	}
	if *reqWarm && agg.counts[runner.SourceSimulated] > 0 {
		fmt.Fprintf(os.Stderr, "simload: -require-warm: %d responses were freshly simulated\n", agg.counts[runner.SourceSimulated])
		os.Exit(1)
	}
}

// usageError reports a bad flag value and exits 2, as flag.Parse does.
func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "simload: "+format+"\n", args...)
	os.Exit(2)
}

// buildDeck expands the workload x size grid into the request cycle.
func buildDeck(workloads, sizes, network string, scale float64) []simd.Request {
	var deck []simd.Request
	for _, w := range strings.Split(workloads, ",") {
		w = strings.TrimSpace(w)
		if w == "" {
			continue
		}
		for _, s := range strings.Split(sizes, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				fmt.Fprintf(os.Stderr, "simload: bad size %q: %v\n", s, err)
				os.Exit(2)
			}
			deck = append(deck, simd.Request{Workload: w, Nodes: n, Network: network, Scale: scale})
		}
	}
	return deck
}

// aggregate collects every client's observations under one lock.
type aggregate struct {
	mu        sync.Mutex
	latencies []time.Duration // per response line, from batch POST
	counts    map[string]int  // responses by source
	coalesced int
	retried   int // 429s honoured
	errs      int
	results   map[string][]byte // fingerprint -> result JSON (divergence is an error)
}

// line is the subset of the stream schema simload consumes; Result stays
// raw so the dump preserves the server's exact bytes.
type line struct {
	Fingerprint string          `json:"fingerprint"`
	Source      string          `json:"source"`
	Coalesced   bool            `json:"coalesced"`
	Result      json.RawMessage `json:"result"`
	Error       string          `json:"error"`
}

func client(id int, addr string, deck []simd.Request, batchSize int, deadline time.Time, agg *aggregate) {
	hc := &http.Client{}
	name := fmt.Sprintf("simload-%d", id)
	for i := id * batchSize; time.Now().Before(deadline); i += batchSize {
		batch := simd.Batch{Requests: make([]simd.Request, batchSize)}
		for j := 0; j < batchSize; j++ {
			batch.Requests[j] = deck[(i+j)%len(deck)]
		}
		body, err := json.Marshal(batch)
		if err != nil {
			agg.fail(err)
			return
		}
		req, err := http.NewRequest(http.MethodPost, addr+"/simulate", bytes.NewReader(body))
		if err != nil {
			agg.fail(err)
			return
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Client", name)
		posted := time.Now()
		resp, err := hc.Do(req)
		if err != nil {
			agg.fail(err)
			return
		}
		switch resp.StatusCode {
		case http.StatusOK:
			agg.consume(resp, posted)
		case http.StatusTooManyRequests:
			resp.Body.Close()
			agg.backoff(resp, deadline)
		default:
			resp.Body.Close()
			agg.fail(fmt.Errorf("status %d from %s", resp.StatusCode, addr))
			return
		}
	}
}

func (a *aggregate) fail(err error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.errs++
	fmt.Fprintln(os.Stderr, "simload:", err)
}

// backoff honours Retry-After (capped by the run deadline).
func (a *aggregate) backoff(resp *http.Response, deadline time.Time) {
	a.mu.Lock()
	a.retried++
	a.mu.Unlock()
	wait := time.Second
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && ra > 0 {
		wait = time.Duration(ra) * time.Second
	}
	if rem := time.Until(deadline); wait > rem {
		wait = rem
	}
	if wait > 0 {
		time.Sleep(wait)
	}
}

// consume reads one NDJSON stream, timing each line against the POST.
func (a *aggregate) consume(resp *http.Response, posted time.Time) {
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		took := time.Since(posted)
		var l line
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			a.fail(fmt.Errorf("undecodable line: %v", err))
			return
		}
		a.mu.Lock()
		if l.Error != "" {
			a.errs++
			fmt.Fprintf(os.Stderr, "simload: scenario %s: %s\n", l.Fingerprint, l.Error)
		} else {
			a.latencies = append(a.latencies, took)
			a.counts[l.Source]++
			if l.Coalesced {
				a.coalesced++
			}
			if prev, ok := a.results[l.Fingerprint]; ok {
				if !bytes.Equal(prev, l.Result) {
					a.errs++
					fmt.Fprintf(os.Stderr, "simload: scenario %s: result bytes diverge between responses\n", l.Fingerprint)
				}
			} else {
				a.results[l.Fingerprint] = append([]byte(nil), l.Result...)
			}
		}
		a.mu.Unlock()
	}
	if err := sc.Err(); err != nil {
		a.fail(err)
	}
}

// writeDump emits the deduped results sorted by fingerprint: a canonical
// byte-comparable view of everything the server answered.
func (a *aggregate) writeDump(path string) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	fps := make([]string, 0, len(a.results))
	for fp := range a.results {
		fps = append(fps, fp)
	}
	sort.Strings(fps)
	var b bytes.Buffer
	for _, fp := range fps {
		fmt.Fprintf(&b, "%s\t%s\n", fp, a.results[fp])
	}
	if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "simload: wrote %d distinct results to %s\n", len(fps), path)
	return nil
}

func (a *aggregate) report(elapsed time.Duration) string {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := len(a.latencies)
	qps := float64(n) / elapsed.Seconds()
	sort.Slice(a.latencies, func(i, j int) bool { return a.latencies[i] < a.latencies[j] })
	pct := func(p float64) time.Duration {
		if n == 0 {
			return 0
		}
		i := int(p * float64(n-1))
		return a.latencies[i]
	}
	var b strings.Builder
	fmt.Fprintf(&b, "simload: %d responses in %.2fs (%.1f resp/s), %d distinct scenarios\n",
		n, elapsed.Seconds(), qps, len(a.results))
	fmt.Fprintf(&b, "sources: %d simulated, %d store, %d memory (%d coalesced); %d rate/queue retries, %d errors\n",
		a.counts[runner.SourceSimulated], a.counts[runner.SourceStore], a.counts[runner.SourceMemory],
		a.coalesced, a.retried, a.errs)
	fmt.Fprintf(&b, "latency: p50=%s p90=%s p99=%s max=%s\n",
		pct(0.50).Round(time.Microsecond), pct(0.90).Round(time.Microsecond),
		pct(0.99).Round(time.Microsecond), pct(1.0).Round(time.Microsecond))
	return b.String()
}
