package simd

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"clustersoc/internal/cluster"
	"clustersoc/internal/core"
	"clustersoc/internal/network"
	"clustersoc/internal/runner"
	"clustersoc/internal/soc"
	"clustersoc/internal/workloads"
)

// tiny returns a cheap cold request: cg on a 2-node TX1 cluster at 1%
// problem scale (sub-millisecond to simulate).
func tiny() Request { return Request{Workload: "cg", Nodes: 2, Scale: 0.01} }

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Runner == nil {
		cfg.Runner = runner.New(2)
	}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postBatch(t *testing.T, url, client string, reqs ...Request) *http.Response {
	t.Helper()
	body, err := json.Marshal(Batch{Requests: reqs})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url+"/simulate", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if client != "" {
		req.Header.Set("X-Client", client)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// readLines consumes an NDJSON stream into decoded Response lines.
func readLines(t *testing.T, resp *http.Response) []Response {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q, want application/x-ndjson", ct)
	}
	var out []Response
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var line Response
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("undecodable line %q: %v", sc.Text(), err)
		}
		out = append(out, line)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCoalescingAcrossClients is the tentpole serving property: two
// clients racing on the same cold fingerprint cost one simulation, and
// both receive the full result.
func TestCoalescingAcrossClients(t *testing.T) {
	s, ts := newTestServer(t, Config{Runner: runner.New(2)})
	const clients = 2
	lines := make([][]Response, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/simulate", "application/json",
				bytes.NewReader(mustJSON(t, Batch{Requests: []Request{tiny()}})))
			if err != nil {
				t.Error(err)
				return
			}
			lines[c] = readLines(t, resp)
		}(c)
	}
	wg.Wait()
	if st := s.Runner().Stats(); st.Simulated != 1 {
		t.Fatalf("Simulated = %d, want exactly 1 for %d racing clients", st.Simulated, clients)
	}
	for c, ls := range lines {
		if len(ls) != 1 || ls[0].Error != "" || ls[0].Result == nil {
			t.Fatalf("client %d: unexpected stream %+v", c, ls)
		}
	}
	if lines[0][0].Fingerprint != lines[1][0].Fingerprint {
		t.Fatalf("fingerprints diverge: %s vs %s", lines[0][0].Fingerprint, lines[1][0].Fingerprint)
	}
	// Exactly one submission executed; the other joined it (in flight or
	// after completion — either way, served from memory as a coalesced hit).
	sources := map[string]int{lines[0][0].Source: 1}
	sources[lines[1][0].Source]++
	if sources[runner.SourceSimulated] != 1 || sources[runner.SourceMemory] != 1 {
		t.Fatalf("sources = %v, want one simulated + one memory", sources)
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestQueueOverflowRejectsWith429 fills the pending queue and checks the
// refusal carries Retry-After instead of queueing unboundedly.
func TestQueueOverflowRejectsWith429(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxPending: 2})
	s.pending.Store(2) // simulate two admitted, unfinished scenarios
	resp := postBatch(t, ts.URL, "", tiny())
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want a positive integer", resp.Header.Get("Retry-After"))
	}
	s.pending.Store(0)
	resp2 := postBatch(t, ts.URL, "", tiny())
	if got := readLines(t, resp2); len(got) != 1 || got[0].Error != "" {
		t.Fatalf("after queue drains, want one clean line, got %+v", got)
	}
	if s.rejectedQueue.Load() != 1 {
		t.Fatalf("rejected_queue = %d, want 1", s.rejectedQueue.Load())
	}
}

// TestPerClientRateLimit checks token accounting: a client's burst
// admits, the next request is refused with a Retry-After sized to the
// refill rate, and other clients are unaffected.
func TestPerClientRateLimit(t *testing.T) {
	s, ts := newTestServer(t, Config{RatePerSec: 0.1, Burst: 2})
	s.Runner().Run(mustResolve(t, tiny())) // pre-warm so admitted requests return instantly
	for i := 0; i < 2; i++ {
		resp := postBatch(t, ts.URL, "alice", tiny())
		if got := readLines(t, resp); len(got) != 1 || got[0].Error != "" {
			t.Fatalf("burst request %d refused: %+v", i, got)
		}
	}
	resp := postBatch(t, ts.URL, "alice", tiny())
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 after burst", resp.StatusCode)
	}
	// One token at 0.1/s is 10 s away; the hint must say so (whole seconds).
	if ra, _ := strconv.Atoi(resp.Header.Get("Retry-After")); ra < 9 {
		t.Fatalf("Retry-After = %q, want >= 9s at 0.1 tokens/s", resp.Header.Get("Retry-After"))
	}
	if s.rejectedRate.Load() != 1 {
		t.Fatalf("rejected_rate = %d, want 1", s.rejectedRate.Load())
	}
	other := postBatch(t, ts.URL, "bob", tiny())
	if got := readLines(t, other); len(got) != 1 || got[0].Error != "" {
		t.Fatalf("other client's bucket drained by alice: %+v", got)
	}
}

func mustResolve(t *testing.T, q Request) runner.Scenario {
	t.Helper()
	sc, err := q.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestStreamCarriesEveryIndexOnce posts a mixed batch and checks the
// NDJSON stream: every index exactly once, IDs echoed, fingerprints
// matching an independent resolution of the same requests.
func TestStreamCarriesEveryIndexOnce(t *testing.T) {
	_, ts := newTestServer(t, Config{Runner: runner.New(4)})
	reqs := []Request{
		{ID: "a", Workload: "cg", Nodes: 2, Scale: 0.01},
		{ID: "b", Workload: "mg", Nodes: 2, Scale: 0.01},
		{ID: "c", Workload: "cg", Nodes: 4, Scale: 0.01},
		{ID: "d", Workload: "cg", Nodes: 2, Scale: 0.01}, // dup of a
	}
	lines := readLines(t, postBatch(t, ts.URL, "", reqs...))
	if len(lines) != len(reqs) {
		t.Fatalf("got %d lines, want %d", len(lines), len(reqs))
	}
	seen := map[int]Response{}
	for _, l := range lines {
		if _, dup := seen[l.Index]; dup {
			t.Fatalf("index %d streamed twice", l.Index)
		}
		seen[l.Index] = l
	}
	for i, q := range reqs {
		l, ok := seen[i]
		if !ok {
			t.Fatalf("index %d missing from stream", i)
		}
		if l.ID != q.ID {
			t.Fatalf("index %d: ID = %q, want %q", i, l.ID, q.ID)
		}
		if want := mustResolve(t, q).Fingerprint(); l.Fingerprint != want {
			t.Fatalf("index %d: fingerprint %s, want %s", i, l.Fingerprint, want)
		}
		if l.Error != "" || l.Result == nil {
			t.Fatalf("index %d: incomplete line %+v", i, l)
		}
	}
	if seen[0].Result.Result.Runtime != seen[3].Result.Result.Runtime {
		t.Fatal("duplicate requests disagree on runtime")
	}
}

// TestServedBytesMatchDirectRunner is the fidelity check: the result
// embedded in a stream line is byte-identical to marshalling the
// run-plane's Result directly — the service adds nothing, strips
// nothing, warms from any tier. A traced result carries its trace, which
// the store holds in binary and the stream carries as JSON.
func TestServedBytesMatchDirectRunner(t *testing.T) {
	traced := tiny()
	traced.Traced = true
	for name, q := range map[string]Request{"untraced": tiny(), "traced": traced} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			st, err := runner.OpenStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			warm := runner.New(1)
			warm.SetStore(st)
			direct, err := warm.Run(mustResolve(t, q))
			if err != nil {
				t.Fatal(err)
			}
			want := mustJSON(t, direct)

			// A fresh runner on the same store: the service answer is a
			// store decode, and must carry the same bytes.
			st2, err := runner.OpenStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			r := runner.New(1)
			r.SetStore(st2)
			_, ts := newTestServer(t, Config{Runner: r})
			resp := postBatch(t, ts.URL, "", q)
			defer resp.Body.Close()
			var line struct {
				Source string          `json:"source"`
				Result json.RawMessage `json:"result"`
			}
			sc := bufio.NewScanner(resp.Body)
			sc.Buffer(make([]byte, 1<<20), 16<<20) // the traced line is about 1.3 MB
			if !sc.Scan() {
				t.Fatalf("empty stream: %v", sc.Err())
			}
			if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
				t.Fatal(err)
			}
			if line.Source != runner.SourceStore {
				t.Fatalf("source = %q, want store", line.Source)
			}
			if !bytes.Equal(line.Result, want) {
				t.Fatalf("served result bytes diverge from direct runner output:\n  served: %s\n  direct: %s", line.Result, want)
			}
			if st := r.Stats(); st.Simulated != 0 {
				t.Fatalf("warm serve simulated %d times, want 0", st.Simulated)
			}
		})
	}
}

// TestGracefulDrain checks drain semantics: an in-flight batch streams
// to completion while new batches and health checks are refused.
func TestGracefulDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{Runner: runner.New(1)})
	reqs := []Request{
		{Workload: "cg", Nodes: 2, Scale: 0.02},
		{Workload: "cg", Nodes: 4, Scale: 0.02},
		{Workload: "cg", Nodes: 6, Scale: 0.02},
		{Workload: "cg", Nodes: 8, Scale: 0.02},
	}
	type outcome struct {
		lines []Response
	}
	done := make(chan outcome, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/simulate", "application/json",
			bytes.NewReader(mustJSON(t, Batch{Requests: reqs})))
		if err != nil {
			t.Error(err)
			done <- outcome{}
			return
		}
		done <- outcome{lines: readLines(t, resp)}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for s.pending.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("batch never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	s.Drain()
	refused := postBatch(t, ts.URL, "", tiny())
	refused.Body.Close()
	if refused.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain batch: status = %d, want 503", refused.StatusCode)
	}
	health, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health.Body.Close()
	if health.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain health: status = %d, want 503", health.StatusCode)
	}
	out := <-done
	if len(out.lines) != len(reqs) {
		t.Fatalf("in-flight batch truncated by drain: %d of %d lines", len(out.lines), len(reqs))
	}
	for _, l := range out.lines {
		if l.Error != "" || l.Result == nil {
			t.Fatalf("in-flight line failed under drain: %+v", l)
		}
	}
	if s.pending.Load() != 0 {
		t.Fatalf("pending = %d after drain completes, want 0", s.pending.Load())
	}
}

// TestStatuszExposesAllScopes checks /statusz merges the simd, runner,
// and store observability scopes.
func TestStatuszExposesAllScopes(t *testing.T) {
	st, err := runner.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r := runner.New(2)
	r.SetStore(st)
	s, ts := newTestServer(t, Config{Runner: r})
	_ = readLines(t, postBatch(t, ts.URL, "", tiny()))
	resp, err := http.Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var status Status
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	if status.Workers != 2 {
		t.Fatalf("workers = %d, want 2", status.Workers)
	}
	if status.StoreDir == "" || status.StoreSchema == 0 {
		t.Fatalf("store identity missing: %+v", status)
	}
	if status.Runner.Submitted != 1 || status.Runner.Simulated != 1 {
		t.Fatalf("runner stats = %+v, want 1 submitted / 1 simulated", status.Runner)
	}
	for _, name := range []string{"simd.served", "simd.batches", "runner.simulated", "store.write"} {
		m, ok := status.Metrics.Get(name)
		if !ok {
			t.Fatalf("metric %s missing from /statusz", name)
		}
		if m.Value != 1 {
			t.Fatalf("metric %s = %v, want 1", name, m.Value)
		}
	}
	if s.served.Load() != 1 {
		t.Fatalf("served = %d, want 1", s.served.Load())
	}
}

// validationCases are the request bodies the server must refuse before
// admitting any work (a MaxPending of 2 makes the last one oversized).
var validationCases = []struct {
	name string
	body string
	want int
}{
	{"empty batch", `{"requests":[]}`, http.StatusBadRequest},
	{"garbage", `{nope`, http.StatusBadRequest},
	{"unknown field", `{"requests":[{"workload":"cg","bogus":1}]}`, http.StatusBadRequest},
	{"unknown workload", `{"requests":[{"workload":"doom"}]}`, http.StatusBadRequest},
	{"unknown system", `{"requests":[{"workload":"cg","system":"cray"}]}`, http.StatusBadRequest},
	{"unknown network", `{"requests":[{"workload":"cg","network":"token-ring"}]}`, http.StatusBadRequest},
	{"unknown network on the cavium", `{"requests":[{"workload":"cg","system":"cavium","network":"token-ring"}]}`, http.StatusBadRequest},
	{"gpu code on cavium", `{"requests":[{"workload":"hpl","system":"cavium"}]}`, http.StatusBadRequest},
	{"negative nodes", `{"requests":[{"workload":"cg","nodes":-1}]}`, http.StatusBadRequest},
	{"zero-node cluster", `{"requests":[{"workload":"ep","cluster":{"Name":"x","Nodes":0}}]}`, http.StatusBadRequest},
	{"zero-core cluster", `{"requests":[{"workload":"ep","cluster":{"Name":"x","Nodes":2,"NodeType":{"CPU":{"Cores":0}}}}]}`, http.StatusBadRequest},
	{"nfs workload without a file server", `{"requests":[{"workload":"alexnet","scale":0.01,"cluster":` + bareTX1 + `}]}`, http.StatusBadRequest},
	{"oversized batch", `{"requests":[{"workload":"cg"},{"workload":"mg"},{"workload":"ft"}]}`, http.StatusRequestEntityTooLarge},
}

// bareTX1 is cluster.TX1Cluster(2, network.TenGigE) as JSON: a GPU
// cluster without the NFS file server the AI workloads fetch images from.
var bareTX1 = func() string {
	b, err := json.Marshal(cluster.TX1Cluster(2, network.TenGigE))
	if err != nil {
		panic(err)
	}
	return string(b)
}()

// unclockedBody asks for a custom cluster whose CPUs have no clock rate:
// it resolves and simulates, but to a +Inf runtime JSON cannot encode.
const unclockedBody = `{"requests":[{"workload":"ep","cluster":{"Name":"x","Nodes":2,"NodeType":{"CPU":{"Cores":4}}}}]}`

// TestRequestValidation checks the 400/405/413 surfaces.
func TestRequestValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxPending: 2})
	for _, tc := range validationCases {
		resp, err := http.Post(ts.URL+"/simulate", "application/json", bytes.NewReader([]byte(tc.body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status = %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
	get, err := http.Get(ts.URL + "/simulate")
	if err != nil {
		t.Fatal(err)
	}
	get.Body.Close()
	if get.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /simulate: status = %d, want 405", get.StatusCode)
	}
}

// TestUnencodableResultStreamsErrorLine checks that a result JSON cannot
// encode still yields its line, as an error, instead of ending the stream
// with nothing written.
func TestUnencodableResultStreamsErrorLine(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/simulate", "application/json", strings.NewReader(unclockedBody))
	if err != nil {
		t.Fatal(err)
	}
	lines := readLines(t, resp)
	if len(lines) != 1 {
		t.Fatalf("got %d lines, want 1", len(lines))
	}
	if l := lines[0]; l.Error == "" || l.Result != nil || l.Fingerprint == "" {
		t.Fatalf("want an error line with a fingerprint and no result, got %+v", l)
	}
	if s.failed.Load() != 1 || s.served.Load() != 0 {
		t.Fatalf("failed = %d, served = %d; want 1 and 0", s.failed.Load(), s.served.Load())
	}
}

// FuzzResolve decodes arbitrary bodies the way POST /simulate does and
// resolves every request: Resolve must never panic, an accepted scenario
// must be buildable (at least one node and one rank per node, and the
// file server when its workload fetches input over NFS), and resolution
// must be deterministic.
func FuzzResolve(f *testing.F) {
	for _, tc := range validationCases {
		f.Add([]byte(tc.body))
	}
	f.Add([]byte(unclockedBody))
	f.Fuzz(func(t *testing.T, data []byte) {
		batch, err := decodeBatch(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i, q := range batch.Requests {
			sc, err := q.Resolve()
			if err != nil {
				continue
			}
			if sc.Cluster.Nodes < 1 || sc.Cluster.RanksPerNode < 1 {
				t.Fatalf("request %d accepted with %d node(s) x %d rank(s) per node",
					i, sc.Cluster.Nodes, sc.Cluster.RanksPerNode)
			}
			if w, err := workloads.ByName(sc.Workload); err != nil {
				t.Fatalf("request %d accepted an unknown workload: %v", i, err)
			} else if workloads.FetchesInput(w) && !sc.Cluster.FileServer {
				t.Fatalf("request %d: %s accepted on a cluster without the file server", i, sc.Workload)
			}
			again, err := q.Resolve()
			if err != nil {
				t.Fatalf("request %d: second resolve failed: %v", i, err)
			}
			if again.Fingerprint() != sc.Fingerprint() {
				t.Fatalf("request %d: fingerprint changed between resolves", i)
			}
		}
	})
}

// TestResolvePresetParity pins the canonical-fingerprint contract: the
// service presets resolve to the exact fingerprints the experiment
// generators and the library face produce, so any store they warm is a
// pure decode for the service.
func TestResolvePresetParity(t *testing.T) {
	// tx1 preset == experiments' standard scenario.
	svc := mustResolve(t, Request{Workload: "hpl", Nodes: 4, Scale: 0.05})
	w, err := workloads.ByName("hpl")
	if err != nil {
		t.Fatal(err)
	}
	cfg := cluster.TX1Cluster(4, network.TenGigE)
	cfg.RanksPerNode = w.RanksPerNode()
	cfg.FileServer = true
	exp := runner.Scenario{Cluster: cfg, Workload: "hpl", Config: workloads.Config{Scale: 0.05}}
	if svc.Fingerprint() != exp.Fingerprint() {
		t.Fatalf("tx1 preset fingerprint diverges from the experiments constructor")
	}
	// Cavium preset == the Table VI generator's scenario (explicit rank
	// count, no per-workload normalization).
	viaPreset := mustResolve(t, Request{Workload: "cg", System: "cavium", Scale: 0.05})
	tableVI := runner.Scenario{Cluster: cluster.CaviumServer(32), Workload: "cg", Config: workloads.Config{Scale: 0.05}}
	if viaPreset.Fingerprint() != tableVI.Fingerprint() {
		t.Fatalf("cavium preset fingerprint diverges from the Table VI generator")
	}
	// gtx980 preset == the Fig. 9 generator's baseline: 2 hosts, one
	// rank each, the file server for the GPU codes.
	viaPreset = mustResolve(t, Request{Workload: "jacobi", System: "gtx980", Scale: 0.05})
	gtx := cluster.GTX980Cluster(2)
	gtx.FileServer = true
	fig9 := runner.Scenario{Cluster: gtx, Workload: "jacobi", Config: workloads.Config{Scale: 0.05}}
	if viaPreset.Fingerprint() != fig9.Fingerprint() {
		t.Fatalf("gtx980 preset fingerprint diverges from the Fig. 9 generator")
	}
	// xgene preset == the related-work generator's X-Gene 1 run.
	viaPreset = mustResolve(t, Request{Workload: "cg", System: "xgene", Scale: 0.05})
	xgene := cluster.Config{Name: "X-Gene 1 server", Nodes: 1, NodeType: soc.AppliedMicroXGene(), Network: network.GigE, RanksPerNode: 8}
	related := runner.Scenario{Cluster: xgene, Workload: "cg", Config: workloads.Config{Scale: 0.05}}
	if viaPreset.Fingerprint() != related.Fingerprint() {
		t.Fatalf("xgene preset fingerprint diverges from the related-work generator")
	}
	// Custom cluster normalizes through core.NewScenario, exactly as the
	// library face does: its explicit RanksPerNode is kept.
	custom := cluster.CaviumServer(16)
	viaCluster := mustResolve(t, Request{Workload: "cg", Cluster: &custom, Scale: 0.05})
	lib, err := core.NewScenario(custom, "cg", workloads.Config{Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if viaCluster.Fingerprint() != lib.Fingerprint() {
		t.Fatalf("explicit-cluster fingerprint diverges from core.NewScenario")
	}
	// Traced and faulted variants never collide with the plain run.
	plain := mustResolve(t, tiny())
	traced := mustResolve(t, Request{Workload: "cg", Nodes: 2, Scale: 0.01, Traced: true})
	if plain.Fingerprint() == traced.Fingerprint() {
		t.Fatal("traced variant shares the untraced fingerprint")
	}
}

// TestBatchOverBurstIsSplitNotRetried: under a rate limit a batch larger
// than the burst can never be admitted whole, however long the client
// waits, so it is refused with 413 ("split it") rather than with a 429
// whose Retry-After promises admission, and a batch of the burst's size
// is admitted.
func TestBatchOverBurstIsSplitNotRetried(t *testing.T) {
	s, ts := newTestServer(t, Config{RatePerSec: 1000, Burst: 2})
	s.Runner().Run(mustResolve(t, tiny()))
	resp := postBatch(t, ts.URL, "carol", tiny(), tiny(), tiny())
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("a 3-request batch at burst 2: status = %d, want 413", resp.StatusCode)
	}
	if got := readLines(t, postBatch(t, ts.URL, "carol", tiny(), tiny())); len(got) != 2 {
		t.Fatalf("a batch of the burst's size: %+v, want 2 lines", got)
	}
	if s.rejectedRate.Load() != 0 || s.rejectedBatch.Load() != 1 {
		t.Fatalf("rejected_rate %d, rejected_batch %d: want 0 and 1", s.rejectedRate.Load(), s.rejectedBatch.Load())
	}
}

// TestLimiterAccounting unit-tests the token bucket.
func TestLimiterAccounting(t *testing.T) {
	now := time.Unix(1000, 0)
	l := newLimiter(2, 4)
	if ok, _ := l.take("c", 4, now); !ok {
		t.Fatal("full bucket refused its burst")
	}
	ok, wait := l.take("c", 2, now)
	if ok {
		t.Fatal("empty bucket admitted")
	}
	if want := time.Second; wait != want {
		t.Fatalf("wait = %v, want %v (2 tokens at 2/s)", wait, want)
	}
	if ok, _ := l.take("c", 2, now.Add(time.Second)); !ok {
		t.Fatal("refilled bucket refused")
	}
	if l := newLimiter(0, 0); l != nil {
		t.Fatal("rate 0 should mean unlimited (nil limiter)")
	}
	var nilL *limiter
	if ok, _ := nilL.take("c", 1000, now); !ok {
		t.Fatal("nil limiter must admit everything")
	}
}

// TestLimiterForgetsRefilledClients: one-off clients a second apart,
// each refilled within 0.1 s at 10 tokens/s and burst 10, leave at most
// a couple of buckets, not one per client ever seen.
func TestLimiterForgetsRefilledClients(t *testing.T) {
	l := newLimiter(10, 10)
	start, most := time.Unix(1000, 0), 0
	for i := 0; i < 100000; i++ {
		l.take(fmt.Sprintf("client-%d", i), 1, start.Add(time.Duration(i)*time.Second))
		most = max(most, len(l.buckets))
	}
	if most > 2 {
		t.Fatalf("100000 one-off clients left up to %d buckets, want at most 2", most)
	}
}

// refLimiter is the limiter before it dropped refilled buckets: one
// bucket per client ever seen. The sweeping limiter must answer exactly
// as it does.
type refLimiter struct {
	rate, burst float64
	buckets     map[string]*bucket
}

func (l *refLimiter) take(client string, n int, now time.Time) (bool, time.Duration) {
	b, found := l.buckets[client]
	if !found {
		b = &bucket{tokens: l.burst, last: now}
		l.buckets[client] = b
	} else {
		b.tokens = math.Min(l.burst, b.tokens+now.Sub(b.last).Seconds()*l.rate)
		b.last = now
	}
	need := float64(n)
	if b.tokens >= need {
		b.tokens -= need
		return true, 0
	}
	return false, time.Duration((need - b.tokens) / l.rate * float64(time.Second))
}

// TestSweepingLimiterAnswersAsBefore replays a seeded trace of regulars
// and one-off clients through both limiters: every admission and every
// Retry-After wait must match, while the sweeping one holds fewer
// buckets.
func TestSweepingLimiterAnswersAsBefore(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	l := newLimiter(5, 8)
	ref := &refLimiter{rate: l.rate, burst: l.burst, buckets: map[string]*bucket{}}
	now := time.Unix(1000, 0)
	admitted := 0
	for i := 0; i < 200000; i++ {
		now = now.Add(time.Duration(rng.ExpFloat64() * float64(20*time.Millisecond)))
		client := fmt.Sprintf("regular-%d", rng.Intn(64))
		if rng.Intn(4) == 0 {
			client = fmt.Sprintf("once-%d", i)
		}
		n := 1 + rng.Intn(8)
		ok, wait := l.take(client, n, now)
		wantOK, wantWait := ref.take(client, n, now)
		if ok != wantOK || wait != wantWait {
			t.Fatalf("step %d (%s, %d tokens): got %v, %v; the unswept limiter says %v, %v", i, client, n, ok, wait, wantOK, wantWait)
		}
		if ok {
			admitted++
		}
	}
	if admitted == 0 || admitted == 200000 {
		t.Fatalf("%d of 200000 admitted: the trace never tests both answers", admitted)
	}
	if len(l.buckets)*10 > len(ref.buckets) {
		t.Fatalf("%d buckets kept against the unswept %d: refilled buckets are not dropped", len(l.buckets), len(ref.buckets))
	}
}

// TestStoreTierVisibleInResponses: a second service instance on the same
// store answers from the store tier with zero simulations — the
// cross-replica property CI leans on.
func TestStoreTierVisibleInResponses(t *testing.T) {
	dir := t.TempDir()
	st1, err := runner.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	r1 := runner.New(1)
	r1.SetStore(st1)
	_, ts1 := newTestServer(t, Config{Runner: r1})
	lines := readLines(t, postBatch(t, ts1.URL, "", tiny()))
	if lines[0].Source != runner.SourceSimulated {
		t.Fatalf("cold source = %q, want simulated", lines[0].Source)
	}

	st2, err := runner.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	r2 := runner.New(1)
	r2.SetStore(st2)
	_, ts2 := newTestServer(t, Config{Runner: r2})
	warm := readLines(t, postBatch(t, ts2.URL, "", tiny()))
	if warm[0].Source != runner.SourceStore {
		t.Fatalf("warm source = %q, want store", warm[0].Source)
	}
	if r2.Stats().Simulated != 0 {
		t.Fatalf("replica simulated %d times, want 0", r2.Stats().Simulated)
	}
	// And a repeat on the same replica is an in-memory hit.
	again := readLines(t, postBatch(t, ts2.URL, "", tiny()))
	if again[0].Source != runner.SourceMemory || !again[0].Coalesced {
		t.Fatalf("repeat source = %q coalesced=%v, want memory/coalesced", again[0].Source, again[0].Coalesced)
	}
}

// A delivered line means its scenario's pending slot is free: a client
// that has read a batch's last line sees pending 0 on /statusz at once.
func TestDeliveredLinesReleaseTheirSlots(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for b := 0; b < 50; b++ {
		lines := readLines(t, postBatch(t, ts.URL, "", tiny(), Request{Workload: "cg", Nodes: 4, Scale: 0.01}))
		if len(lines) != 2 {
			t.Fatalf("batch %d: %d lines, want 2", b, len(lines))
		}
		resp, err := http.Get(ts.URL + "/statusz")
		if err != nil {
			t.Fatal(err)
		}
		var st Status
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.Pending != 0 {
			t.Fatalf("batch %d: pending = %d after its last line, want 0", b, st.Pending)
		}
	}
}
