package trace

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"
)

func TestRecordAndAggregate(t *testing.T) {
	tr := New([]int{0, 0, 1})
	tr.RecordCompute(0, 1.5, 0)
	tr.RecordCopy(0, 0.5, 1.5)
	tr.RecordCompute(1, 2.0, 0)
	tr.RecordSend(0, 2, 7, 1000, 2.0, 2.1)
	tr.RecordRecv(2, 0, 7, 0, 2.2)
	tr.Finish(2.2)

	comp := tr.T.ComputeSeconds()
	if math.Abs(comp[0]-2.0) > 1e-12 || math.Abs(comp[1]-2.0) > 1e-12 || comp[2] != 0 {
		t.Fatalf("compute seconds %v", comp)
	}
	if tr.T.MessageBytes() != 1000 {
		t.Fatalf("message bytes %v", tr.T.MessageBytes())
	}
	if tr.T.Runtime != 2.2 {
		t.Fatal("runtime not stamped")
	}
	if tr.T.Ranks[0].Node != 0 || tr.T.Ranks[2].Node != 1 {
		t.Fatal("rank-node mapping lost")
	}
}

func TestZeroDurationOpsDropped(t *testing.T) {
	tr := New([]int{0})
	tr.RecordCompute(0, 0, 1)
	tr.RecordCopy(0, -1, 1)
	if len(tr.T.Ranks[0].Ops) != 0 {
		t.Fatal("zero/negative durations should not be recorded")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	tr := New([]int{0, 0, 1, 1})
	tr.RecordCompute(0, 1.5, 0)
	tr.RecordSend(0, 2, 7, 1000, 1.5, 1.6)
	tr.RecordRecv(2, 0, 7, 0, 1.7)
	tr.RecordPhase(1, 2)
	tr.RecordCopy(1, 0.25, 0)
	tr.Finish(2.5)
	// Rank 3 records nothing, so its Ops is nil, as in a simulated trace;
	// rank 2 carries values only raw float bits round-trip exactly.
	tr.T.Ranks[2].Ops = append(tr.T.Ranks[2].Ops, Op{Kind: OpCompute, Dur: math.NaN(),
		Bytes: math.Copysign(0, -1), Start: math.Inf(-1), End: math.Inf(1)})

	var buf bytes.Buffer
	if err := tr.T.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Runtime != 2.5 || len(got.Ranks) != 4 {
		t.Fatalf("header lost: %+v", got)
	}
	if got.Ranks[3].Ops != nil {
		t.Fatalf("a rank without ops must read back with nil Ops, got %#v", got.Ranks[3].Ops)
	}
	if !sameTrace(&tr.T, got) {
		t.Fatalf("round trip changed the trace:\n%+v\nvs\n%+v", tr.T, *got)
	}
	// Summaries agree once the special values are gone.
	tr.T.Ranks[2].Ops = tr.T.Ranks[2].Ops[:1]
	got.Ranks[2].Ops = got.Ranks[2].Ops[:1]
	a, b := tr.T.Summarize(), got.Summarize()
	if a != b {
		t.Fatalf("summaries differ: %+v vs %+v", a, b)
	}
}

// sameTrace compares two traces field by field, floats by their bits, so
// NaN equals itself and -0 differs from 0, and nil Ops differs from empty.
func sameTrace(a, b *Trace) bool {
	bits := func(op Op) [4]uint64 {
		return [4]uint64{math.Float64bits(op.Dur), math.Float64bits(op.Bytes),
			math.Float64bits(op.Start), math.Float64bits(op.End)}
	}
	if math.Float64bits(a.Runtime) != math.Float64bits(b.Runtime) || len(a.Ranks) != len(b.Ranks) {
		return false
	}
	for i, ra := range a.Ranks {
		rb := b.Ranks[i]
		if ra.Rank != rb.Rank || ra.Node != rb.Node || len(ra.Ops) != len(rb.Ops) || (ra.Ops == nil) != (rb.Ops == nil) {
			return false
		}
		for j, oa := range ra.Ops {
			ob := rb.Ops[j]
			if oa.Kind != ob.Kind || oa.Peer != ob.Peer || oa.Tag != ob.Tag || bits(oa) != bits(ob) {
				return false
			}
		}
	}
	return true
}

// encoded returns Write's bytes for tr.
func encoded(t *testing.T, tr *Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestReadRejectsGarbage(t *testing.T) {
	twoRanks := func(peer int) *Trace {
		tr := New([]int{0, 1})
		tr.RecordCompute(0, 1, 0)
		tr.RecordSend(0, peer, 3, 100, 1, 1.1)
		tr.Finish(1.2)
		return &tr.T
	}
	valid := encoded(t, twoRanks(1))
	// The rank count is the uvarint after the magic line and the runtime.
	countAt := len("clustersoc-trace v2\n") + 8
	cases := []struct {
		name, want string
		data       []byte
	}{
		{"garbage", "not a trace file", []byte("garbage")},
		{"future version", "unsupported version 3",
			bytes.Replace(valid, []byte("clustersoc-trace v2"), []byte("clustersoc-trace v3"), 1)},
		{"duplicate rank", "duplicate rank 0",
			encoded(t, &Trace{Ranks: []*RankTrace{{Rank: 0}, {Rank: 0}}})},
		{"missing rank", "missing ranks", func() []byte {
			one := encoded(t, &Trace{Ranks: []*RankTrace{{Rank: 0, Ops: []Op{{Kind: OpCompute, Dur: 1}}}}})
			one[countAt] = 2 // claim a second rank the input never gives
			return one
		}()},
		{"rank label out of range", "rank 5 out of range",
			encoded(t, &Trace{Ranks: []*RankTrace{{Rank: 5}}})},
		{"send to a peer that is not a rank", "peer 7 out of range", encoded(t, twoRanks(7))},
		{"receive from a negative peer", "peer -1 out of range",
			encoded(t, &Trace{Ranks: []*RankTrace{{Ops: []Op{{Kind: OpRecv, Peer: -1}}}}})},
		{"truncated rank record", "unexpected end of input", valid[:len(valid)-1]},
		{"trailing bytes", "1 trailing bytes", append(append([]byte{}, valid...), 0)},
		{"op count beyond the input", "more than the input holds",
			binary.AppendUvarint(append(append([]byte{}, valid[:countAt]...), 1, 0, 0), 1<<40)},
		{"rank count beyond the input", "implausible rank count",
			binary.AppendUvarint(append([]byte{}, valid[:countAt]...), 1<<30)},
		{"v1 JSON trace", "re-record the trace with clustersim -trace",
			[]byte(`{"version":1,"ranks":1,"runtime":1}` + "\n" + `{"rank":0,"node":0,"ops":[]}` + "\n")},
	}
	for _, tc := range cases {
		_, err := Read(bytes.NewReader(tc.data))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Read error = %v, want one containing %q", tc.name, err, tc.want)
		}
	}
	if _, err := Read(bytes.NewReader(valid)); err != nil {
		t.Fatalf("the unmangled input must read: %v", err)
	}
}

func TestSummarize(t *testing.T) {
	tr := New([]int{0, 1})
	tr.RecordCompute(0, 2, 0)
	tr.RecordCopy(0, 1, 2)
	tr.RecordSend(0, 1, 1, 500, 3, 3.1)
	tr.RecordRecv(1, 0, 1, 0, 3.2)
	tr.Finish(3.2)
	s := tr.T.Summarize()
	if s.Compute != 2 || s.Copies != 1 || s.Messages != 1 || s.Bytes != 500 || s.Ops != 4 {
		t.Fatalf("summary %+v", s)
	}
}

func TestTimelineRenders(t *testing.T) {
	tr := New([]int{0, 1})
	tr.RecordCompute(0, 0.6, 0)
	tr.RecordSend(0, 1, 1, 100, 0.6, 0.7)
	tr.RecordCopy(1, 0.2, 0)
	tr.RecordRecv(1, 0, 1, 0.2, 0.7)
	tr.Finish(1.0)
	out := tr.T.Timeline(20)
	for _, want := range []string{"rank   0", "rank   1", "#", "=", ".", "utilization"} {
		if !strings.Contains(out, want) {
			t.Fatalf("timeline missing %q:\n%s", want, out)
		}
	}
	// Empty trace handled.
	if !strings.Contains((&Trace{}).Timeline(20), "empty") {
		t.Fatal("empty trace should say so")
	}
	// Tiny width clamps up rather than panicking.
	if (&Trace{Runtime: 1, Ranks: []*RankTrace{{}}}).Timeline(1) == "" {
		t.Fatal("clamped width broke rendering")
	}
}
