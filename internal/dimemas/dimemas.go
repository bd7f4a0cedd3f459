// Package dimemas replays execution traces under modified conditions, the
// way the paper uses the DIMEMAS high-level network simulator (Sec.
// III-B.4): the same dependency structure is re-timed with a different
// network (including the ideal zero-latency, unlimited-bandwidth network)
// or with the load artificially balanced across ranks, isolating each
// scalability factor.
//
// It also computes the parallel-efficiency decomposition of Rosas et al.,
// equation (4) of the paper:
//
//	eta = LB * Ser * Trf
//
// where LB measures load balance, Ser the serialization imposed by
// dependencies even on an ideal network, and Trf the cost of actual data
// transfers.
package dimemas

import (
	"fmt"

	"clustersoc/internal/network"
	"clustersoc/internal/trace"
)

// NetworkModel parameterizes the replay network (DIMEMAS's simple model:
// per-message latency plus bytes/bandwidth, no contention).
type NetworkModel struct {
	Name           string
	Bandwidth      float64 // bytes/second between distinct nodes
	Latency        float64 // seconds per inter-node message
	IntraBandwidth float64 // bytes/second between ranks on one node
	IntraLatency   float64
}

// IdealNetwork is the zero-latency, unlimited-bandwidth scenario.
var IdealNetwork = NetworkModel{
	Name:           "ideal",
	Bandwidth:      1e18,
	Latency:        0,
	IntraBandwidth: 1e18,
	IntraLatency:   0,
}

// NICModel is the replay network of a NIC profile: the profile's
// throughput and latency between nodes, and the simulator's shared-memory
// path between ranks on one node.
func NICModel(prof network.Profile) NetworkModel {
	return NetworkModel{
		Name:           prof.Name,
		Bandwidth:      prof.Throughput,
		Latency:        prof.Latency,
		IntraBandwidth: network.MemoryPathBandwidth,
		IntraLatency:   network.MemoryPathLatency,
	}
}

// Options modifies a replay.
type Options struct {
	Net NetworkModel
	// IdealLoadBalance rescales every rank's compute time within each
	// phase to the phase mean (LB = 1), leaving copies and messages alone.
	IdealLoadBalance bool
	// Buses limits how many inter-node transfers can be in flight at once
	// — DIMEMAS's classic "number of buses" contention parameter. Zero
	// means unlimited (the L1 contention-free model).
	Buses int
}

// inFlight is one replayed message not yet received: its tag and the
// time its last byte reaches the receiver.
type inFlight struct {
	tag     int
	arrival float64
}

// fifo is one (src, dst) pair's unreceived messages in send order; q[head:]
// are live. A sender can run far ahead of its receiver (193 messages in
// Fig. 6 at scale 0.05), so receives advance head instead of shifting the
// queue.
type fifo struct {
	q    []inFlight
	head int
}

// Replay re-times the trace under opts and returns the simulated runtime.
// A receive that no send can ever match deadlocks the replay, which is
// reported as an error: traces arrive from files as well as from the
// simulator. Peers must index ranks of t, which trace.Read guarantees.
func Replay(t *trace.Trace, opts Options) (float64, error) {
	n := len(t.Ranks)
	scale := computeScales(t, opts.IdealLoadBalance)

	clocks := make([]float64, n)
	idx := make([]int, n)
	phase := make([]int, n)
	// pairs[src*n+dst] holds the pair's messages in flight; a receive
	// takes the first with its tag, so messages on one (src, dst, tag)
	// still match in send order.
	pairs := make([]fifo, n*n)
	// Bus contention: each inter-node transfer books the earliest-free
	// bus. With Buses == 0 the slice stays empty and transfers never wait.
	var buses []float64
	if opts.Buses > 0 {
		buses = make([]float64, opts.Buses)
	}

	remaining := 0
	for _, r := range t.Ranks {
		remaining += len(r.Ops)
	}
	for remaining > 0 {
		progress := false
		for r := 0; r < n; r++ {
			rt := t.Ranks[r]
			stuck := false
			for idx[r] < len(rt.Ops) && !stuck {
				op := rt.Ops[idx[r]]
				switch op.Kind {
				case trace.OpCompute:
					d := op.Dur
					if scale != nil {
						d *= scale[r][phase[r]]
					}
					clocks[r] += d
				case trace.OpCopy:
					clocks[r] += op.Dur
				case trace.OpPhase:
					phase[r]++
				case trace.OpSend:
					bw, lat := opts.Net.Bandwidth, opts.Net.Latency
					intra := t.Ranks[op.Peer].Node == rt.Node
					if intra {
						bw, lat = opts.Net.IntraBandwidth, opts.Net.IntraLatency
					}
					start := clocks[r]
					if len(buses) > 0 && !intra {
						// Claim the earliest-free bus (DIMEMAS contention).
						bi := 0
						for i := 1; i < len(buses); i++ {
							if buses[i] < buses[bi] {
								bi = i
							}
						}
						if buses[bi] > start {
							start = buses[bi]
						}
						buses[bi] = start + op.Bytes/bw
					}
					drain := start + op.Bytes/bw
					f := &pairs[r*n+op.Peer]
					f.q = append(f.q, inFlight{op.Tag, drain + lat})
					clocks[r] = drain
				case trace.OpRecv:
					f := &pairs[op.Peer*n+r]
					i := f.head
					for i < len(f.q) && f.q[i].tag != op.Tag {
						i++
					}
					if i == len(f.q) {
						stuck = true // sender not replayed yet; revisit next pass
						continue
					}
					if f.q[i].arrival > clocks[r] {
						clocks[r] = f.q[i].arrival
					}
					// Drop entry i, keeping the skipped ones in send order.
					copy(f.q[f.head+1:i+1], f.q[f.head:i])
					f.head++
					if f.head == len(f.q) {
						f.q, f.head = f.q[:0], 0 // drained: reuse the storage
					}
				}
				idx[r]++
				remaining--
				progress = true
			}
		}
		if !progress {
			return 0, fmt.Errorf("dimemas: replay deadlock with %d ops remaining (a receive no send matches)", remaining)
		}
	}
	max := 0.0
	for _, c := range clocks {
		if c > max {
			max = c
		}
	}
	return max, nil
}

// computeScales returns per-rank, per-phase multipliers for compute time:
// each rank's compute in a phase is scaled to the phase mean. Without
// ideal load balance every factor would be 1, so it returns nil.
func computeScales(t *trace.Trace, ideal bool) [][]float64 {
	if !ideal {
		return nil
	}
	n := len(t.Ranks)
	// Count phases and per-phase compute per rank.
	perRank := make([][]float64, n)
	maxPhases := 1
	for i, r := range t.Ranks {
		cur := 0.0
		for _, op := range r.Ops {
			switch op.Kind {
			case trace.OpCompute:
				cur += op.Dur
			case trace.OpPhase:
				perRank[i] = append(perRank[i], cur)
				cur = 0
			}
		}
		perRank[i] = append(perRank[i], cur)
		if len(perRank[i]) > maxPhases {
			maxPhases = len(perRank[i])
		}
	}
	scale := make([][]float64, n)
	for i := range scale {
		scale[i] = make([]float64, maxPhases)
		for j := range scale[i] {
			scale[i][j] = 1
		}
	}
	for ph := 0; ph < maxPhases; ph++ {
		sum, cnt := 0.0, 0
		for i := 0; i < n; i++ {
			if ph < len(perRank[i]) {
				sum += perRank[i][ph]
				cnt++
			}
		}
		if cnt == 0 {
			continue
		}
		mean := sum / float64(cnt)
		for i := 0; i < n; i++ {
			if ph < len(perRank[i]) && perRank[i][ph] > 0 {
				scale[i][ph] = mean / perRank[i][ph]
			}
		}
	}
	return scale
}

// Efficiency is the eta = LB * Ser * Trf decomposition for one traced run.
type Efficiency struct {
	LB  float64 // load balance: mean(C_i)/max(C_i)
	Ser float64 // serialization: max(C_i)/T_ideal
	Trf float64 // transfer: T_ideal/T_measured
	Eta float64
	// TIdeal is the ideal-network replay runtime; TMeasured the real one.
	TIdeal    float64
	TMeasured float64
}

// Decompose computes the efficiency factors of a traced run whose measured
// runtime is t.Runtime. It fails when the ideal-network replay does.
func Decompose(t *trace.Trace) (Efficiency, error) {
	comp := t.ComputeSeconds()
	sum, max := 0.0, 0.0
	for _, c := range comp {
		sum += c
		if c > max {
			max = c
		}
	}
	mean := sum / float64(len(comp))
	tIdeal, err := Replay(t, Options{Net: IdealNetwork})
	if err != nil {
		return Efficiency{}, err
	}
	e := Efficiency{
		TIdeal:    tIdeal,
		TMeasured: t.Runtime,
	}
	if max > 0 {
		e.LB = mean / max
	}
	if tIdeal > 0 {
		e.Ser = clamp01(max / tIdeal)
	}
	if t.Runtime > 0 {
		e.Trf = clamp01(tIdeal / t.Runtime)
	}
	e.Eta = e.LB * e.Ser * e.Trf
	return e, nil
}

// Analysis is the paper's Sec. III-B.4 study of one traced run: the
// efficiency decomposition, whose TIdeal is the ideal-network replay,
// and the ideal-load-balance replay on the run's own network.
type Analysis struct {
	Efficiency
	IdealLB float64
}

// Analyze runs Decompose and the ideal-load-balance replay of t on net.
// It fails when either replay does.
func Analyze(t *trace.Trace, net NetworkModel) (Analysis, error) {
	eff, err := Decompose(t)
	if err != nil {
		return Analysis{}, err
	}
	lb, err := Replay(t, Options{Net: net, IdealLoadBalance: true})
	if err != nil {
		return Analysis{}, err
	}
	return Analysis{Efficiency: eff, IdealLB: lb}, nil
}

func clamp01(x float64) float64 {
	if x > 1 {
		return 1
	}
	if x < 0 {
		return 0
	}
	return x
}
