package runner

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"clustersoc/internal/cluster"
	"clustersoc/internal/network"
	"clustersoc/internal/workloads"
)

// tinyScenario is a fast real simulation for cache/equivalence tests.
func tinyScenario(workload string, nodes int, prof network.Profile) Scenario {
	cfg := cluster.TX1Cluster(nodes, prof)
	w, err := workloads.ByName(workload)
	if err != nil {
		panic(err)
	}
	cfg.RanksPerNode = w.RanksPerNode()
	if w.GPUAccelerated() {
		cfg.FileServer = true
	}
	return Scenario{Cluster: cfg, Workload: workload, Config: workloads.Config{Scale: 0.01}}
}

// stubRunner returns a Runner whose executor is the given function —
// no simulation, controlled timing.
func stubRunner(workers int, exec func(Scenario) (Result, error)) *Runner {
	r := New(workers)
	r.exec = func(s Scenario, _ Observers) (Result, error) { return exec(s) }
	return r
}

func TestFingerprintSeparatesScenarios(t *testing.T) {
	a := tinyScenario("hpl", 2, network.GigE)
	b := tinyScenario("hpl", 2, network.TenGigE)
	c := tinyScenario("hpl", 4, network.GigE)
	d := tinyScenario("cg", 2, network.GigE)
	seen := map[string]string{}
	for _, s := range []Scenario{a, b, c, d} {
		fp := s.Fingerprint()
		if prev, ok := seen[fp]; ok {
			t.Fatalf("fingerprint collision: %s == %s", prev, fp)
		}
		seen[fp] = fp
	}
	if a.Fingerprint() != tinyScenario("hpl", 2, network.GigE).Fingerprint() {
		t.Fatal("identical scenarios must share a fingerprint")
	}
}

func TestFingerprintCanonicalizesWorkloadConfig(t *testing.T) {
	base := tinyScenario("hpl", 2, network.TenGigE)
	ratio1 := base
	ratio1.Config.GPUWorkRatio = 1.0
	if base.Fingerprint() != ratio1.Fingerprint() {
		t.Error("GPUWorkRatio 0 (default) and 1.0 (all-GPU) must share a fingerprint")
	}
	half := base
	half.Config.GPUWorkRatio = 0.5
	if base.Fingerprint() == half.Fingerprint() {
		t.Error("distinct work ratios must not share a fingerprint")
	}
	colo := base
	colo.Colocated = []Job{{Workload: "hpl-cpu", RanksPerNode: 3, Config: base.Config}}
	if base.Fingerprint() == colo.Fingerprint() {
		t.Error("a collocated run must not share the solo run's fingerprint")
	}
}

func TestCacheAccounting(t *testing.T) {
	var executed int32
	r := stubRunner(2, func(s Scenario) (Result, error) {
		atomic.AddInt32(&executed, 1)
		return Result{Result: cluster.Result{System: s.Workload}}, nil
	})
	a := tinyScenario("hpl", 2, network.GigE)
	b := tinyScenario("cg", 2, network.GigE)
	batch := []Scenario{a, b, a, a, b} // 5 submissions, 2 distinct
	if _, err := r.RunAll(batch); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(a); err != nil { // cross-batch duplicate
		t.Fatal(err)
	}
	st := r.Stats()
	if st.Submitted != 6 || st.Simulated != 2 || st.Hits != 4 {
		t.Errorf("stats = %+v, want {Submitted:6 Hits:4 Simulated:2}", st)
	}
	if got := atomic.LoadInt32(&executed); got != 2 {
		t.Errorf("executor ran %d times, want 2", got)
	}
}

func TestRunAllKeepsSubmissionOrderUnderSlowFirstScenario(t *testing.T) {
	scenarios := make([]Scenario, 8)
	for i := range scenarios {
		scenarios[i] = tinyScenario("ep", i+1, network.GigE)
	}
	r := stubRunner(4, func(s Scenario) (Result, error) {
		if s.Cluster.Nodes == 1 {
			time.Sleep(50 * time.Millisecond) // adversarially slow first submission
		}
		return Result{Result: cluster.Result{Nodes: s.Cluster.Nodes}}, nil
	})
	res, err := r.RunAll(scenarios)
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range res {
		if got.Nodes != i+1 {
			t.Fatalf("res[%d].Nodes = %d, want %d: results not in submission order", i, got.Nodes, i+1)
		}
	}
}

func TestWorkerPoolBoundRespected(t *testing.T) {
	const workers = 3
	var inFlight, peak int32
	r := stubRunner(workers, func(Scenario) (Result, error) {
		n := atomic.AddInt32(&inFlight, 1)
		for {
			p := atomic.LoadInt32(&peak)
			if n <= p || atomic.CompareAndSwapInt32(&peak, p, n) {
				break
			}
		}
		time.Sleep(10 * time.Millisecond)
		atomic.AddInt32(&inFlight, -1)
		return Result{}, nil
	})
	scenarios := make([]Scenario, 12)
	for i := range scenarios {
		scenarios[i] = tinyScenario("ep", i+1, network.GigE)
	}
	if _, err := r.RunAll(scenarios); err != nil {
		t.Fatal(err)
	}
	got := atomic.LoadInt32(&peak)
	if got > workers {
		t.Errorf("observed %d concurrent executions, pool bound is %d", got, workers)
	}
	if got < 2 {
		t.Errorf("observed %d concurrent executions, expected the pool to overlap independent scenarios", got)
	}
}

// TestParallelPoolOverlapsWallTime demonstrates the run-plane's speedup
// mechanism independently of host core count: with a sleeping executor,
// four distinct scenarios finish in ~1 slot on 4 workers vs ~4 slots on
// 1 worker.
func TestParallelPoolOverlapsWallTime(t *testing.T) {
	const slot = 40 * time.Millisecond
	sleepy := func(Scenario) (Result, error) {
		time.Sleep(slot)
		return Result{}, nil
	}
	scenarios := make([]Scenario, 4)
	for i := range scenarios {
		scenarios[i] = tinyScenario("ep", i+1, network.GigE)
	}
	run := func(workers int) time.Duration {
		r := stubRunner(workers, sleepy)
		start := time.Now()
		if _, err := r.RunAll(scenarios); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	seq := run(1)
	par := run(4)
	if par >= seq {
		t.Errorf("4 workers (%v) not faster than 1 worker (%v) on independent scenarios", par, seq)
	}
	if par > 3*slot {
		t.Errorf("4 workers took %v for 4 x %v scenarios; pool is not overlapping them", par, slot)
	}
}

func TestRunAllReportsFirstErrorInSubmissionOrder(t *testing.T) {
	r := stubRunner(2, func(s Scenario) (Result, error) {
		if s.Cluster.Nodes%2 == 0 {
			return Result{}, fmt.Errorf("boom at %d nodes", s.Cluster.Nodes)
		}
		return Result{}, nil
	})
	var scenarios []Scenario
	for i := 1; i <= 6; i++ {
		scenarios = append(scenarios, tinyScenario("ep", i, network.GigE))
	}
	_, err := r.RunAll(scenarios)
	if err == nil || err.Error() != "boom at 2 nodes" {
		t.Errorf("err = %v, want the first failing submission's error (boom at 2 nodes)", err)
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	s := tinyScenario("ep", 2, network.GigE)
	s.Workload = "no-such-workload"
	if _, err := New(1).Run(s); err == nil {
		t.Fatal("expected an error for an unregistered workload")
	}
}

// TestBatchEqualsNaive is the testing/quick property: for any sequence
// of picks from a scenario palette, the deduped concurrent batch returns
// exactly what naive one-at-a-time Execute calls return.
func TestBatchEqualsNaive(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates real scenarios")
	}
	palette := []Scenario{
		tinyScenario("ep", 1, network.GigE),
		tinyScenario("ep", 2, network.TenGigE),
		tinyScenario("cg", 2, network.GigE),
		tinyScenario("hpl", 2, network.TenGigE),
	}
	naive := make([]Result, len(palette))
	for i, s := range palette {
		var err error
		naive[i], err = Execute(s, Observers{})
		if err != nil {
			t.Fatal(err)
		}
	}
	r := New(4)
	property := func(picks []uint8) bool {
		if len(picks) > 12 {
			picks = picks[:12]
		}
		var batch []Scenario
		var want []Result
		for _, p := range picks {
			i := int(p) % len(palette)
			batch = append(batch, palette[i])
			want = append(want, naive[i])
		}
		got, err := r.RunAll(batch)
		if err != nil {
			return false
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestConcurrentRunSharesInFlightExecution checks the join path: two
// goroutines submitting the same fingerprint while the first is still
// executing must share one execution.
func TestConcurrentRunSharesInFlightExecution(t *testing.T) {
	var executed int32
	release := make(chan struct{})
	r := stubRunner(4, func(Scenario) (Result, error) {
		atomic.AddInt32(&executed, 1)
		<-release
		return Result{}, nil
	})
	s := tinyScenario("ep", 2, network.GigE)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := r.Run(s); err != nil {
				t.Error(err)
			}
		}()
	}
	for r.Stats().Submitted < 4 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if got := atomic.LoadInt32(&executed); got != 1 {
		t.Errorf("executor ran %d times for one fingerprint, want 1", got)
	}
	st := r.Stats()
	if st.Hits != 3 || st.Simulated != 1 {
		t.Errorf("stats = %+v, want 3 hits joining 1 simulation", st)
	}
}
