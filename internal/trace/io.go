package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
)

// Traces serialize to one compact binary format, used both for trace
// files (clustersim -trace out.trace, then cmd/replay re-times it under a
// different network, like the paper's Extrae -> DIMEMAS pipeline) and for
// the trace section of a persisted store entry. The layout is:
//
//	"clustersoc-trace v2\n"            text magic line naming the version
//	runtime                            8 bytes, IEEE-754 bits, little-endian
//	rank count                         uvarint
//	per rank: label, node              varint each
//	          op count                 uvarint
//	          per op: kind, peer, tag  varint each
//	                  Dur, Bytes,      8 bytes each, IEEE-754 bits,
//	                  Start, End       little-endian
//
// Floats travel as raw bits, so every value round-trips exactly
// (including -0, NaN and Inf), and Write is deterministic: one trace
// always encodes to the same bytes. Version 1 was line-oriented JSON; it
// is rejected with a message asking for the trace to be re-recorded.

const (
	magic          = "clustersoc-trace v"
	currentVersion = 2
	// maxRanks bounds the rank count a trace may claim.
	maxRanks = 1 << 20
	// minRankBytes and minOpBytes are the smallest encodings of a rank
	// header and of an op: every counted record must fit in what is left
	// of the input, which bounds each allocation by the input's size.
	minRankBytes = 3
	minOpBytes   = 3 + 4*8
)

// Write serializes the trace.
func (t *Trace) Write(w io.Writer) error {
	size := len(magic) + 8 + 2*binary.MaxVarintLen64
	for _, r := range t.Ranks {
		size += 3*binary.MaxVarintLen64 + len(r.Ops)*(minOpBytes+8)
	}
	b := make([]byte, 0, size)
	b = append(b, magic...)
	b = strconv.AppendInt(b, currentVersion, 10)
	b = append(b, '\n')
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(t.Runtime))
	b = binary.AppendUvarint(b, uint64(len(t.Ranks)))
	for _, r := range t.Ranks {
		b = binary.AppendVarint(b, int64(r.Rank))
		b = binary.AppendVarint(b, int64(r.Node))
		b = binary.AppendUvarint(b, uint64(len(r.Ops)))
		for _, op := range r.Ops {
			b = binary.AppendVarint(b, int64(op.Kind))
			b = binary.AppendVarint(b, int64(op.Peer))
			b = binary.AppendVarint(b, int64(op.Tag))
			for _, f := range [4]float64{op.Dur, op.Bytes, op.Start, op.End} {
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
			}
		}
	}
	_, err := w.Write(b)
	return err
}

// Read deserializes a trace written by Write; see Decode.
func Read(r io.Reader) (*Trace, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("trace: read: %w", err)
	}
	return Decode(data)
}

// Decode deserializes the bytes Write wrote, for callers that already
// hold them, such as the store reading an entry's trace section. It
// rejects anything Write cannot have produced from a well-formed trace:
// an unknown version, a rank label out of range or repeated, a send or
// receive whose peer is not a rank of the trace, a count larger than the
// input can hold, and trailing bytes. The result shares no memory with
// data.
func Decode(data []byte) (*Trace, error) {
	body, err := readMagic(data)
	if err != nil {
		return nil, err
	}
	d := decoder{buf: body}
	runtime := d.float()
	n := d.uvarint()
	if d.err == nil && (n > maxRanks || n > uint64(len(d.buf)/minRankBytes)) {
		return nil, fmt.Errorf("trace: implausible rank count %d", n)
	}
	t := &Trace{Runtime: runtime, Ranks: make([]*RankTrace, n)}
	for i := uint64(0); i < n && d.err == nil; i++ {
		if len(d.buf) == 0 {
			return nil, fmt.Errorf("trace: missing ranks: input ends after %d of %d", i, n)
		}
		label, node := d.varint(), d.varint()
		count := d.uvarint()
		if d.err != nil {
			break
		}
		if label < 0 || uint64(label) >= n {
			return nil, fmt.Errorf("trace: rank %d out of range", label)
		}
		if t.Ranks[label] != nil {
			return nil, fmt.Errorf("trace: duplicate rank %d", label)
		}
		if count > uint64(len(d.buf)/minOpBytes) {
			return nil, fmt.Errorf("trace: rank %d claims %d ops, more than the input holds", label, count)
		}
		rt := &RankTrace{Rank: int(label), Node: int(node)}
		if count > 0 {
			rt.Ops = make([]Op, count)
		}
		for j := range rt.Ops {
			op := &rt.Ops[j]
			op.Kind = OpKind(d.varint())
			op.Peer = int(d.varint())
			op.Tag = int(d.varint())
			op.Dur, op.Bytes, op.Start, op.End = d.float(), d.float(), d.float(), d.float()
			if d.err != nil {
				break
			}
			if (op.Kind == OpSend || op.Kind == OpRecv) && (op.Peer < 0 || uint64(op.Peer) >= n) {
				return nil, fmt.Errorf("trace: rank %d op %d: peer %d out of range [0,%d)", label, j, op.Peer, n)
			}
		}
		t.Ranks[label] = rt
	}
	if d.err != nil {
		return nil, fmt.Errorf("trace: %w", d.err)
	}
	if len(d.buf) > 0 {
		return nil, fmt.Errorf("trace: %d trailing bytes", len(d.buf))
	}
	return t, nil
}

// readMagic checks the version line and returns the binary body after it.
func readMagic(data []byte) ([]byte, error) {
	if rest, ok := bytes.CutPrefix(data, []byte(`{"version":`)); ok {
		version, _, _ := bytes.Cut(rest, []byte{','})
		if len(version) > 8 {
			version = version[:8]
		}
		return nil, fmt.Errorf("trace: version %s is the retired JSON trace format; re-record the trace with clustersim -trace", version)
	}
	line, body, ok := bytes.Cut(data, []byte{'\n'})
	if !ok || !bytes.HasPrefix(line, []byte(magic)) {
		return nil, errors.New("trace: not a trace file (no clustersoc-trace header)")
	}
	version, err := strconv.Atoi(string(line[len(magic):]))
	if err != nil {
		return nil, errors.New("trace: malformed version line")
	}
	if version != currentVersion {
		return nil, fmt.Errorf("trace: unsupported version %d", version)
	}
	return body, nil
}

// errTruncated reports input that ends inside a record.
var errTruncated = errors.New("unexpected end of input")

// decoder reads the binary body. The first failure sticks: later reads
// return zero values, so a caller checks err once per record.
type decoder struct {
	buf []byte
	err error
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.fail(n)
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		d.fail(n)
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *decoder) float() float64 {
	if d.err != nil {
		return 0
	}
	if len(d.buf) < 8 {
		d.err = errTruncated
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.buf))
	d.buf = d.buf[8:]
	return v
}

// fail records a varint failure: n == 0 means the input ended, n < 0
// that the value overflows 64 bits.
func (d *decoder) fail(n int) {
	if n == 0 {
		d.err = errTruncated
	} else {
		d.err = errors.New("varint overflows 64 bits")
	}
}

// Summary aggregates a trace for human inspection.
type Summary struct {
	Ranks    int
	Runtime  float64
	Ops      int
	Compute  float64 // total compute seconds across ranks
	Copies   float64 // total copy seconds
	Messages int
	Bytes    float64
}

// Summarize computes the aggregate view.
func (t *Trace) Summarize() Summary {
	s := Summary{Ranks: len(t.Ranks), Runtime: t.Runtime}
	for _, r := range t.Ranks {
		s.Ops += len(r.Ops)
		for _, op := range r.Ops {
			switch op.Kind {
			case OpCompute:
				s.Compute += op.Dur
			case OpCopy:
				s.Copies += op.Dur
			case OpSend:
				s.Messages++
				s.Bytes += op.Bytes
			}
		}
	}
	return s
}
