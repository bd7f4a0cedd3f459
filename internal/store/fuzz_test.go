package store

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// FuzzVerify feeds arbitrary records to the read-time verifier. verify
// must never panic and must report every rejection as ErrCorrupt, or as
// ErrMiss for a whole tombstone. Whatever it accepts must be exactly the
// bytes after the first newline, under a header that declares the
// store's version and schema, the address read, and the payload's length
// and SHA-256. And the record rendered for any payload must verify back
// to that payload.
func FuzzVerify(f *testing.F) {
	s := &Store{schema: 7}
	addr := sha256.Sum256([]byte("the-key"))
	rec := s.record(addr, []byte(`{"result":42}`))
	f.Add(rec)
	for _, d := range entryDamage {
		f.Add(d.mut(rec))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := s.verify(data, addr)
		nl := bytes.IndexByte(data, '\n')
		switch {
		case errors.Is(err, ErrMiss):
			if string(data) != string(s.record(addr, nil)) {
				t.Fatalf("ErrMiss for %q, which is not a tombstone", data)
			}
		case err != nil:
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("rejection %v is not ErrCorrupt", err)
			}
		case nl < 0 || !bytes.Equal(got, data[nl+1:]):
			t.Fatalf("accepted payload %q is not the bytes after the first newline of %q", got, data)
		default:
			h, fields := parseHeader(data[:nl])
			if fields != fieldAll || h.version != FormatVersion || h.schema != s.schema || h.key != addr ||
				h.n != int64(len(got)) || h.sum != sha256.Sum256(got) {
				t.Fatalf("accepted header %q does not describe its %d-byte payload", data[:nl], len(got))
			}
		}

		back, err := s.verify(s.record(addr, data), addr)
		if len(data) == 0 {
			if !errors.Is(err, ErrMiss) {
				t.Fatalf("tombstone round trip: %v, want ErrMiss", err)
			}
		} else if err != nil || !bytes.Equal(back, data) {
			t.Fatalf("record round trip: %q, %v", back, err)
		}
	})
}

// FuzzSegment feeds arbitrary bytes to the scanner as a segment file of
// a schema-7 store. Open must not panic or loop, must index only
// records whose header line names the key they are indexed under, and
// every indexed key, and the seeds' keys, must read as ErrMiss,
// ErrCorrupt, or the bytes after its header, whose length and SHA-256
// the header declares.
func FuzzSegment(f *testing.F) {
	w, err := Open(f.TempDir(), 7)
	if err != nil {
		f.Fatal(err)
	}
	rec := func(key, payload string) []byte { return w.record(w.address(key), []byte(payload)) }
	a, b := rec("a", `{"result":1}`), rec("b", `{"result":22}`)
	two := append(append([]byte(nil), a...), b...)
	flipped := append([]byte(nil), two...)
	flipped[len(a)-2] ^= 0x01
	huge := bytes.Replace(two, []byte("len=12 "), []byte("len=999999999999999999 "), 1)
	other := &Store{schema: 8, prefix: w.prefix}
	seeds := [][]byte{
		// A clean two-record segment, then cut mid-header and mid-payload.
		two, two[:len(a)+20], two[:len(two)-3],
		// A flipped payload bit, and a huge len=.
		flipped, huge,
		// Garbage between two records.
		bytes.Join([][]byte{a, b}, []byte("garbage\n")),
		// A tombstone, then a re-put.
		bytes.Join([][]byte{a, rec("a", ""), rec("a", `{"result":3}`)}, nil),
		// A record of another schema, then one of this store's.
		append(other.record(w.address("a"), []byte("x")), b...),
	}
	for _, seed := range seeds {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "seg-00000000000000000001-fuzz.pack"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, 7)
		if err != nil {
			t.Fatal(err)
		}
		for addr, l := range s.index {
			line, _, _ := bytes.Cut(data[l.off:], []byte{'\n'})
			if h, fields := parseHeader(line); fields < fieldKey || h.key != addr || h.schema != 7 {
				t.Fatalf("indexed %x at %d, where the header line is %q", addr, l.off, line)
			}
			check(t, s, data, addr, l)
		}
		for _, k := range []string{"a", "b"} {
			if _, err := s.Get(k); err != nil && !errors.Is(err, ErrMiss) && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Get(%q) = %v", k, err)
			}
		}
	})
}

// check requires the read of addr to be ErrMiss, ErrCorrupt, or the
// payload its header describes.
func check(t *testing.T, s *Store, data []byte, addr address, l loc) {
	t.Helper()
	got, err := s.read(addr, false)
	if err != nil {
		if !errors.Is(err, ErrMiss) && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("read %x = %v", addr, err)
		}
		return
	}
	line, rest, _ := bytes.Cut(data[l.off:], []byte{'\n'})
	h, _ := parseHeader(line)
	if h.n != int64(len(got)) || h.sum != sha256.Sum256(got) || !bytes.HasPrefix(rest, got) {
		t.Fatalf("read %x served %q, which its header %q does not describe", addr, got, line)
	}
}
