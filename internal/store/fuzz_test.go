package store

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"testing"
)

// FuzzVerify feeds arbitrary entry files to the container header parser.
// verify must never panic and must report every rejection as ErrCorrupt.
// Whatever it accepts must be exactly the bytes after the first newline,
// with the version, schema, length and SHA-256 the header declares. And
// the header rendered for any payload must verify back to that payload.
func FuzzVerify(f *testing.F) {
	s := &Store{schema: 7}
	payload := []byte(`{"result":42}`)
	entry := []byte(s.header(payload) + string(payload))
	f.Add(entry)
	for _, d := range entryDamage {
		f.Add(d.mut(entry))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := s.verify(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("rejection %v is not ErrCorrupt", err)
			}
		} else {
			nl := bytes.IndexByte(data, '\n')
			if nl < 0 || !bytes.Equal(got, data[nl+1:]) {
				t.Fatalf("accepted payload %q is not the bytes after the first newline of %q", got, data)
			}
			var version, schema, length int
			var sum []byte
			if _, err := fmt.Sscanf(string(data[:nl]), "clustersoc-store v%d schema=%d len=%d sha256=%x",
				&version, &schema, &length, &sum); err != nil {
				t.Fatalf("accepted header %q does not parse: %v", data[:nl], err)
			}
			want := sha256.Sum256(got)
			if version != FormatVersion || schema != s.schema || length != len(got) || !bytes.Equal(sum, want[:]) {
				t.Fatalf("accepted header %q does not describe its %d-byte payload", data[:nl], len(got))
			}
		}

		back, err := s.verify([]byte(s.header(data) + string(data)))
		if err != nil || !bytes.Equal(back, data) {
			t.Fatalf("header+payload round trip: %q, %v", back, err)
		}
	})
}
