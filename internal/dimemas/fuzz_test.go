package dimemas

import (
	"bytes"
	"testing"

	"clustersoc/internal/network"
	"clustersoc/internal/trace"
	"clustersoc/internal/units"
)

// FuzzReplay feeds whatever trace.Read accepts to the replayer: a trace
// file is input, so no byte sequence may make Replay or Decompose panic.
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
	f.Add(encode(&trace.Trace{}))
	f.Add([]byte("garbage"))

	lb := Options{Net: NetworkModel{Bandwidth: 1e9, Latency: 1e-6, IntraBandwidth: 1e10}, IdealLoadBalance: true, Buses: 2}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := trace.Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, opts := range []Options{{Net: IdealNetwork}, lb} {
			if _, err := Replay(tr, opts); err != nil {
				return
			}
		}
		if _, err := Decompose(tr); err != nil {
			t.Fatalf("Decompose failed on a trace Replay accepted: %v", err)
		}
	})
}
