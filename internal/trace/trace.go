// Package trace records Extrae-style execution traces of a simulated run:
// per-rank sequences of compute intervals, host<->device copies, and
// point-to-point messages (collectives appear as the p2p pattern their
// algorithm generates, exactly as a real MPI trace would show them).
//
// Traces are the input to the scalability methodology of Sec. III-B.4
// (Rosas et al.): internal/dimemas replays them under modified conditions
// (ideal network, ideal load balance) to attribute parallel inefficiency.
package trace

// OpKind classifies one trace operation.
type OpKind int

const (
	// OpCompute is local work (CPU or GPU kernel time).
	OpCompute OpKind = iota
	// OpCopy is a host<->device transfer; like compute it is local time,
	// but it is not rebalanced by the ideal-load-balance scenario because
	// it is data-movement, not work.
	OpCopy
	// OpSend transmits Bytes to Peer with Tag.
	OpSend
	// OpRecv blocks for a message from Peer with Tag.
	OpRecv
	// OpPhase marks an iteration boundary; the PARAVER-style chopping of
	// Sec. III-B.4 groups ops between markers into phases.
	OpPhase
)

// Op is one recorded operation.
type Op struct {
	Kind  OpKind
	Dur   float64 // compute/copy duration
	Peer  int     // send/recv partner rank
	Bytes float64 // send payload
	Tag   int     // send/recv matching tag
	Start float64 // observed start time
	End   float64 // observed end time
}

// RankTrace is the op sequence of one rank.
type RankTrace struct {
	Rank int
	Node int // network node hosting the rank
	Ops  []Op
}

// Trace is a whole-application trace.
type Trace struct {
	Ranks   []*RankTrace
	Runtime float64 // observed wall time of the traced run
}

// Tracer records a run. It implements the mpi recorder interface, and the
// cluster run context feeds it compute/copy/phase records.
type Tracer struct {
	T Trace
}

// New creates a tracer for n ranks placed on the given nodes.
func New(rankNode []int) *Tracer {
	tr := &Tracer{}
	tr.T.Ranks = make([]*RankTrace, len(rankNode))
	for i, node := range rankNode {
		tr.T.Ranks[i] = &RankTrace{Rank: i, Node: node}
	}
	return tr
}

// RecordSend logs a point-to-point send (mpi recorder interface).
func (tr *Tracer) RecordSend(rank, peer, tag int, bytes, start, end float64) {
	r := tr.T.Ranks[rank]
	r.Ops = append(r.Ops, Op{Kind: OpSend, Peer: peer, Tag: tag, Bytes: bytes, Start: start, End: end})
}

// RecordRecv logs a point-to-point receive completion.
func (tr *Tracer) RecordRecv(rank, peer, tag int, start, end float64) {
	r := tr.T.Ranks[rank]
	r.Ops = append(r.Ops, Op{Kind: OpRecv, Peer: peer, Tag: tag, Start: start, End: end})
}

// RecordCompute logs local work on a rank.
func (tr *Tracer) RecordCompute(rank int, dur, start float64) {
	if dur <= 0 {
		return
	}
	r := tr.T.Ranks[rank]
	r.Ops = append(r.Ops, Op{Kind: OpCompute, Dur: dur, Start: start, End: start + dur})
}

// RecordCopy logs a host<->device transfer on a rank.
func (tr *Tracer) RecordCopy(rank int, dur, start float64) {
	if dur <= 0 {
		return
	}
	r := tr.T.Ranks[rank]
	r.Ops = append(r.Ops, Op{Kind: OpCopy, Dur: dur, Start: start, End: start + dur})
}

// RecordPhase logs an iteration boundary on a rank.
func (tr *Tracer) RecordPhase(rank int, at float64) {
	r := tr.T.Ranks[rank]
	r.Ops = append(r.Ops, Op{Kind: OpPhase, Start: at, End: at})
}

// Finish stamps the observed runtime.
func (tr *Tracer) Finish(runtime float64) { tr.T.Runtime = runtime }

// NodeCount returns one past the highest node id hosting a rank — the
// number of distinct process tracks a viewer needs, and the first free
// process id for synthetic tracks (the exporter's critical-path lane).
func (t *Trace) NodeCount() int {
	max := -1
	for _, r := range t.Ranks {
		if r.Node > max {
			max = r.Node
		}
	}
	return max + 1
}

// ComputeSeconds returns each rank's total compute (+copy) time, the C_i
// of the efficiency decomposition.
func (t *Trace) ComputeSeconds() []float64 {
	out := make([]float64, len(t.Ranks))
	for i, r := range t.Ranks {
		for _, op := range r.Ops {
			if op.Kind == OpCompute || op.Kind == OpCopy {
				out[i] += op.Dur
			}
		}
	}
	return out
}

// MessageBytes returns the total bytes sent across all ranks.
func (t *Trace) MessageBytes() float64 {
	var b float64
	for _, r := range t.Ranks {
		for _, op := range r.Ops {
			if op.Kind == OpSend {
				b += op.Bytes
			}
		}
	}
	return b
}
