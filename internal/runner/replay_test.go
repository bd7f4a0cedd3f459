package runner

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"clustersoc/internal/cluster"
	"clustersoc/internal/dimemas"
	"clustersoc/internal/network"
	"clustersoc/internal/workloads"
)

// TestReplayScenarioKeepsOnlyTheAnalysis pins what a Replay scenario
// serves: the DIMEMAS analysis of the traced run it stands for, bit for
// bit, and otherwise that run's Result without its trace. It covers GPU
// and NPB workloads on one node and on eight.
func TestReplayScenarioKeepsOnlyTheAnalysis(t *testing.T) {
	for _, w := range []string{"hpl", "jacobi", "cg", "bt"} {
		for _, nodes := range []int{1, 8} {
			untraced := tinyScenario(w, nodes, network.TenGigE)
			traced := untraced
			traced.Cluster.Traced = true
			replay := traced
			replay.Replay = true
			fps := map[string]bool{untraced.Fingerprint(): true, traced.Fingerprint(): true, replay.Fingerprint(): true}
			if len(fps) != 3 {
				t.Fatalf("%s on %d nodes: untraced, traced and replay fingerprints are not distinct", w, nodes)
			}

			want, err := Execute(traced, Observers{})
			if err != nil {
				t.Fatal(err)
			}
			eff, err := dimemas.Decompose(want.Trace)
			if err != nil {
				t.Fatal(err)
			}
			lb, err := dimemas.Replay(want.Trace, dimemas.Options{Net: dimemas.NICModel(network.TenGigE), IdealLoadBalance: true})
			if err != nil {
				t.Fatal(err)
			}
			got, err := Execute(replay, Observers{})
			if err != nil {
				t.Fatal(err)
			}
			if got.Replay == nil || got.Trace != nil {
				t.Fatalf("%s on %d nodes: Replay %v, Trace %v; want an analysis and no trace", w, nodes, got.Replay, got.Trace)
			}
			a := *got.Replay
			for _, f := range []struct {
				name      string
				got, want float64
			}{
				{"LB", a.LB, eff.LB}, {"Ser", a.Ser, eff.Ser}, {"Trf", a.Trf, eff.Trf}, {"Eta", a.Eta, eff.Eta},
				{"TIdeal", a.TIdeal, eff.TIdeal}, {"TMeasured", a.TMeasured, eff.TMeasured}, {"IdealLB", a.IdealLB, lb},
			} {
				if math.Float64bits(f.got) != math.Float64bits(f.want) {
					t.Errorf("%s on %d nodes: %s = %v, want %v", w, nodes, f.name, f.got, f.want)
				}
			}
			// Replay records the trace it analyses even when the cluster
			// config asks for none.
			replay.Cluster.Traced = false
			untracedReplay, err := Execute(replay, Observers{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(untracedReplay, got) {
				t.Errorf("%s on %d nodes: a Replay scenario without Cluster.Traced serves a different Result", w, nodes)
			}
			got.Replay, want.Trace = nil, nil
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s on %d nodes: the rest of the Result differs from the traced run's", w, nodes)
			}
		}
	}
}

// FuzzFingerprint checks the canonical cache key: equal scenarios give
// equal keys, every field that changes a run changes the key, and no
// key can be taken for an observer record's key.
func FuzzFingerprint(f *testing.F) {
	f.Add(uint8(0), uint8(1), false, 0.05, 0.0, uint8(0), false)
	f.Add(uint8(7), uint8(8), true, 1.0, 0.5, uint8(3), true)
	f.Add(uint8(16), uint8(255), true, -3.0, math.NaN(), uint8(15), false)
	f.Add(uint8(2), uint8(4), false, math.Inf(1), 2.0, uint8(4), true)
	all := workloads.All()
	f.Fuzz(func(t *testing.T, wi, nodes uint8, tenG bool, scale, ratio float64, flags uint8, colo bool) {
		build := func() Scenario {
			prof := network.GigE
			if tenG {
				prof = network.TenGigE
			}
			w := all[int(wi)%len(all)]
			cfg := cluster.TX1Cluster(int(nodes)%64+1, prof)
			cfg.RanksPerNode = w.RanksPerNode()
			cfg.Traced = flags&1 != 0
			s := Scenario{
				Cluster:  cfg,
				Workload: w.Name(),
				Config: workloads.Config{
					Scale:         scale,
					GPUWorkRatio:  ratio,
					HalfPrecision: flags&4 != 0,
					WeakScaling:   flags&8 != 0,
				},
				Replay: flags&2 != 0,
			}
			if colo {
				s.Colocated = []Job{{Workload: "hpl-cpu", RanksPerNode: 3, Config: s.Config}}
			}
			return s
		}
		base := build()
		fp := base.Fingerprint()
		if again := build().Fingerprint(); again != fp {
			t.Fatalf("equal scenarios, different keys:\n%s\n%s", fp, again)
		}
		// Out-of-range scales run the full-size problem, as Scale 1 does.
		if !(scale > 0 && scale <= 1) && !math.IsNaN(scale) {
			one := base
			one.Config.Scale = 1
			if one.Fingerprint() != fp {
				t.Fatalf("scale %v and scale 1 run the same problem but got different keys", scale)
			}
		}

		flips := map[string]func(*Scenario){
			"Replay":         func(s *Scenario) { s.Replay = !s.Replay },
			"Cluster.Traced": func(s *Scenario) { s.Cluster.Traced = !s.Cluster.Traced },
			"Nodes":          func(s *Scenario) { s.Cluster.Nodes++ },
			"NIC": func(s *Scenario) {
				if s.Cluster.Network == network.GigE {
					s.Cluster.Network = network.TenGigE
				} else {
					s.Cluster.Network = network.GigE
				}
			},
			"Scale": func(s *Scenario) {
				c := s.Config
				for _, v := range []float64{0.5, 0.25} {
					if c.Scale = v; c.Key() != s.Config.Key() {
						break
					}
				}
				s.Config = c
			},
			"Colocated job": func(s *Scenario) {
				s.Colocated = append(append([]Job(nil), s.Colocated...), Job{Workload: "cg", RanksPerNode: 1})
			},
		}
		keys := []string{fp}
		for name, flip := range flips {
			s := build()
			flip(&s)
			if k := s.Fingerprint(); k == fp {
				t.Fatalf("flipping %s left the key unchanged: %s", name, fp)
			} else {
				keys = append(keys, k)
			}
		}
		for _, k := range keys {
			if strings.HasPrefix(k, profileKey) || strings.HasPrefix(k, critPathKey) {
				t.Fatalf("key %q can be taken for an observer record's key", k)
			}
		}
	})
}
