package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"clustersoc/internal/runner"
	"clustersoc/internal/simd"
	"clustersoc/internal/workloads"
)

// The serve grid is the simload/CI deck widened to every registry
// workload: workloads x sizes x scales x NICs, in that nesting order.
var (
	deckSizes  = []int{2, 4, 6, 8}
	deckScales = []float64{0.05, 0.08}
	deckNets   = []string{"1GbE", "10GbE"}
)

const (
	// deckBatch is the scenarios per POST, simload's default.
	deckBatch = 8
	// deckRepeats is how many more times a pass cycles the grid after
	// touching every key once. Three is the fewest whole cycles that leave
	// ten lines beyond a pass's p99 (4 x 272 = 1,088 lines). It is a
	// choice, not measured traffic: it makes 75% of the lines memory
	// hits, where CI's simload run is over 99.9% memory hits.
	deckRepeats = 3
)

// deck is serve's seeded request stream over the grid.
type deck struct {
	seed int64
	grid []simd.Request
	// warm[i] marks grid[i] as pre-warmed into the store by set-up.
	warm []bool
}

// gridRequests enumerates the serve grid.
func gridRequests() []simd.Request {
	var grid []simd.Request
	for _, w := range workloads.All() {
		for _, n := range deckSizes {
			for _, sc := range deckScales {
				for _, net := range deckNets {
					grid = append(grid, simd.Request{Workload: w.Name(), Nodes: n, Network: net, Scale: sc})
				}
			}
		}
	}
	return grid
}

// newDeck splits grid into the warm and cold halves for seed. grid must
// nest scales and NICs innermost, as gridRequests does. A group is one
// (workload, size): its scale x NIC keys. Set-up warms one NIC per scale
// of every group, the other NIC at the next scale, so each group is half
// warm with both NICs cold once; the seed picks which.
func newDeck(seed int64, grid []simd.Request) (*deck, error) {
	nets, group := len(deckNets), len(deckScales)*len(deckNets)
	if len(grid)%group != 0 {
		return nil, fmt.Errorf("deck: %d grid keys do not form groups of %d", len(grid), group)
	}
	d := &deck{seed: seed, grid: grid, warm: make([]bool, len(grid))}
	seen := map[string]bool{}
	for _, q := range grid {
		sc, err := q.Resolve()
		if err != nil {
			return nil, err
		}
		fp := sc.Fingerprint()
		if seen[fp] {
			return nil, fmt.Errorf("deck: two grid requests share fingerprint %s", fp)
		}
		seen[fp] = true
	}
	rng := rand.New(rand.NewSource(seed))
	for g := 0; g < len(grid)/group; g++ {
		b := rng.Intn(nets)
		for s := range deckScales {
			d.warm[g*group+s*nets+(b+s)%nets] = true
		}
	}
	return d, nil
}

// stream draws the request order of one pass, as grid indices: one seeded
// order of the grid, cycled 1+deckRepeats times, the way simload's
// clients cycle their deck uniformly. The first cycle touches every key
// once, so every pass has the same tier counts and cold work, and the
// later cycles are memory hits. The seed and the pass decide the order;
// each pass draws anew so that a run's medians do not hang on one order.
func (d *deck) stream(pass int) []int {
	order := rand.New(rand.NewSource(d.seed*1_000_003 + int64(pass))).Perm(len(d.grid))
	var out []int
	for c := 0; c <= deckRepeats; c++ {
		out = append(out, order...)
	}
	return out
}

// warmRequests are the grid keys set-up pre-warms into the store.
func (d *deck) warmRequests() []simd.Request {
	var out []simd.Request
	for i, q := range d.grid {
		if d.warm[i] {
			out = append(out, q)
		}
	}
	return out
}

// tiers predicts how many lines of a pass each runner tier serves: the
// first touch of a warmed key is a store hit, the first touch of any
// other key a simulation, and every repeat a memory hit.
func (d *deck) tiers(stream []int) map[string]int {
	out := map[string]int{}
	touched := map[int]bool{}
	for _, i := range stream {
		switch {
		case touched[i]:
			out[runner.SourceMemory]++
		case d.warm[i]:
			out[runner.SourceStore]++
		default:
			out[runner.SourceSimulated]++
		}
		touched[i] = true
	}
	return out
}

// bodies encodes a stream as POST bodies of deckBatch requests each.
func (d *deck) bodies(stream []int) ([][]byte, error) {
	var out [][]byte
	for lo := 0; lo < len(stream); lo += deckBatch {
		hi := min(lo+deckBatch, len(stream))
		b := simd.Batch{}
		for _, i := range stream[lo:hi] {
			b.Requests = append(b.Requests, d.grid[i])
		}
		data, err := json.Marshal(b)
		if err != nil {
			return nil, err
		}
		out = append(out, data)
	}
	return out, nil
}
