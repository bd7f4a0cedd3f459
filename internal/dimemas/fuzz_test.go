package dimemas

import (
	"bytes"
	"testing"

	"clustersoc/internal/network"
	"clustersoc/internal/trace"
	"clustersoc/internal/units"
)

// FuzzReplay feeds whatever trace.Read accepts to the replayer: a trace
// file is input, so no byte sequence may make Replay or Decompose panic,
// and every replay must agree with referenceReplay bit for bit, errors
// included.
func FuzzReplay(f *testing.F) {
	encode := func(tr *trace.Trace) []byte {
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	skew := func(rank int) float64 { return 1 + float64(rank)*0.5 }
	f.Add(encode(traceRun(3, network.GigE, ringWorkload(0.001, 2, 10*units.KB, skew))))
	f.Add(encode(&trace.Trace{Runtime: 1, Ranks: []*trace.RankTrace{
		{Rank: 0, Ops: []trace.Op{{Kind: trace.OpRecv, Peer: 1, Tag: 1}}},
		{Rank: 1, Node: 1},
	}}))
	// Receives that must pass over another tag on their pair: rank 1 takes
	// tag 2 from behind a tag-1 message, and later waits for a tag-3 send
	// while the pair holds only tag 1. Compute between the receives makes
	// a wrong match show in the runtime.
	op := func(kind trace.OpKind, peer, tag int, bytes float64) trace.Op {
		return trace.Op{Kind: kind, Peer: peer, Tag: tag, Bytes: bytes}
	}
	compute := trace.Op{Kind: trace.OpCompute, Dur: 1}
	f.Add(encode(&trace.Trace{Runtime: 1, Ranks: []*trace.RankTrace{
		{Rank: 0, Ops: []trace.Op{op(trace.OpSend, 1, 1, 100), op(trace.OpSend, 1, 2, 100), op(trace.OpSend, 1, 1, 1e8)}},
		{Rank: 1, Node: 1, Ops: []trace.Op{op(trace.OpRecv, 0, 2, 0), op(trace.OpRecv, 0, 1, 0), compute, op(trace.OpRecv, 0, 1, 0)}},
	}}))
	f.Add(encode(&trace.Trace{Runtime: 1, Ranks: []*trace.RankTrace{
		{Rank: 0, Ops: []trace.Op{op(trace.OpSend, 1, 1, 100), op(trace.OpRecv, 1, 9, 0), op(trace.OpSend, 1, 3, 1e8)}},
		{Rank: 1, Node: 1, Ops: []trace.Op{op(trace.OpSend, 0, 9, 100), op(trace.OpRecv, 0, 3, 0), compute, op(trace.OpRecv, 0, 1, 0)}},
	}}))
	f.Add(encode(&trace.Trace{}))
	f.Add([]byte("garbage"))

	models := []Options{
		{Net: IdealNetwork},
		{Net: NetworkModel{Bandwidth: 1e9, Latency: 1e-6, IntraBandwidth: 1e10}, IdealLoadBalance: true, Buses: 2},
		{Net: NetworkModel{Bandwidth: 1e8, Latency: 1e-5, IntraBandwidth: 1e10}, Buses: 2},
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := trace.Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		replayed := true
		for _, opts := range models {
			got, err := Replay(tr, opts)
			want, refErr := referenceReplay(tr, opts)
			if !sameReplay(got, err, want, refErr) {
				t.Fatalf("%+v: Replay = %v (%v), reference %v (%v)", opts, got, err, want, refErr)
			}
			replayed = replayed && err == nil
		}
		if !replayed {
			return
		}
		if _, err := Decompose(tr); err != nil {
			t.Fatalf("Decompose failed on a trace Replay accepted: %v", err)
		}
	})
}
