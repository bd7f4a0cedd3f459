package trace

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzRead hardens the trace parser: arbitrary input must produce either
// a valid trace or an error — never a panic, never a trace that breaks
// the replayer's invariants, never one that does not round-trip.
func FuzzRead(f *testing.F) {
	tr := New([]int{0, 1})
	tr.RecordCompute(0, 1, 0)
	tr.RecordSend(0, 1, 3, 100, 1, 1.1)
	tr.RecordRecv(1, 0, 3, 0, 1.2)
	tr.Finish(1.2)
	var buf bytes.Buffer
	if err := tr.T.Write(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	// One rank claiming 2^40 ops, with no body to back the claim.
	huge := append([]byte("clustersoc-trace v2\n"), make([]byte, 8)...)
	huge = binary.AppendUvarint(append(binary.AppendUvarint(huge, 1), 0, 0), 1<<40)
	f.Add(huge)
	f.Add([]byte(`{"version":1,"ranks":1,"runtime":1}` + "\n" + `{"rank":0,"node":0,"ops":[{"Kind":0,"Dur":1}]}` + "\n"))
	f.Add([]byte("garbage"))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A successfully parsed trace must be structurally sound.
		for i, r := range got.Ranks {
			if r == nil {
				t.Fatalf("rank %d nil in accepted trace", i)
			}
			if r.Rank != i {
				t.Fatalf("rank %d mislabeled as %d", i, r.Rank)
			}
			for j, op := range r.Ops {
				if (op.Kind == OpSend || op.Kind == OpRecv) && (op.Peer < 0 || op.Peer >= len(got.Ranks)) {
					t.Fatalf("rank %d op %d: peer %d accepted with %d ranks", i, j, op.Peer, len(got.Ranks))
				}
			}
		}
		// Round trip: what we read must write and re-read equal, and
		// writing that again must give the same bytes.
		var out bytes.Buffer
		if err := got.Write(&out); err != nil {
			t.Fatalf("re-write failed: %v", err)
		}
		first := bytes.Clone(out.Bytes())
		again, err := Read(&out)
		if err != nil {
			t.Fatalf("re-read failed: %v", err)
		}
		var second bytes.Buffer
		if err := again.Write(&second); err != nil {
			t.Fatalf("second re-write failed: %v", err)
		}
		if !bytes.Equal(first, second.Bytes()) {
			t.Fatal("writing a re-read trace changed its bytes")
		}
		if !sameTrace(got, again) {
			t.Fatal("round trip changed the trace")
		}
	})
}
