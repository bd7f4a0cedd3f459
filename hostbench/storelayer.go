package main

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"time"

	"clustersoc/internal/experiments"
	"clustersoc/internal/network"
	"clustersoc/internal/runner"
	"clustersoc/internal/store"
	"clustersoc/internal/workloads"
)

const mib = 1 << 20

// storeUsage is what a store directory holds on disk.
type storeUsage struct {
	entries int
	bytes   int64
	max     int64
	files   []string
}

// usageOf walks a store directory's entry files. The ".entry" suffix is
// the store's file naming; the benchmark reads sizes and opaque bytes
// only, never the container format.
func usageOf(dir string) storeUsage {
	var u storeUsage
	filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".entry") {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return nil
		}
		u.entries++
		u.bytes += info.Size()
		u.max = max(u.max, info.Size())
		u.files = append(u.files, path)
		return nil
	})
	return u
}

// storeLayer is the store's per-layer sample of one pass over st, given
// what the directory held before the pass.
func storeLayer(st *store.Store, dir string, before storeUsage, c store.Counters) map[string]float64 {
	after := usageOf(dir)
	// The output checks hold every pass to one store hit per entry that
	// was present before it, so the bytes read are the hit share of those.
	read := ratio(float64(c.Hits), float64(before.entries)) * float64(before.bytes)
	return map[string]float64{
		"store.entries":           float64(after.entries),
		"store.bytes_written":     float64(after.bytes - before.bytes),
		"store.bytes_read":        read,
		"store.traced_byte_share": ratio(float64(tracedBytes(st)), float64(after.bytes)),
		"store.max_entry_mb":      float64(after.max) / mib,
		"store.corrupt":           float64(c.Corrupt),
	}
}

// tracedBytes sums the payloads of the traced standard runs the store
// holds at suiteScale: the Fig. 5/6 scaling entries.
func tracedBytes(st *store.Store) int64 {
	o := experiments.Options{Scale: suiteScale}
	var n int64
	for _, w := range workloads.All() {
		for nodes := 1; nodes <= 8; nodes++ {
			sc, err := experiments.TracedScenario(o, w.Name(), nodes, network.TenGigE)
			if err != nil {
				continue
			}
			if data, err := st.Peek(sc.Fingerprint()); err == nil {
				n += int64(len(data))
			}
		}
	}
	return n
}

// probeStore times store.Put and store.Get over the real entry-size mix:
// every entry file under dir, as an opaque payload, into a scratch store.
func probeStore(c config, dir string) (map[string]float64, error) {
	u := usageOf(dir)
	payloads := make([][]byte, 0, len(u.files))
	total := 0.0
	for _, f := range u.files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		payloads = append(payloads, data)
		total += float64(len(data))
	}
	scratch := filepath.Join(c.work, "probe-store")
	defer os.RemoveAll(scratch)
	st, err := store.Open(scratch, runner.StoreSchemaVersion)
	if err != nil {
		return nil, err
	}
	key := func(i int) string { return fmt.Sprintf("probe-%d", i) }
	start := time.Now()
	for i, p := range payloads {
		if err := st.Put(key(i), p); err != nil {
			return nil, err
		}
	}
	put := time.Since(start)
	got := make([][]byte, len(payloads))
	start = time.Now()
	for i := range payloads {
		if got[i], err = st.Get(key(i)); err != nil {
			return nil, err
		}
	}
	get := time.Since(start)
	for i := range payloads {
		if !bytes.Equal(got[i], payloads[i]) {
			return nil, fmt.Errorf("store probe: entry %d read back different bytes", i)
		}
	}
	return map[string]float64{
		"store.put_mb_per_s": total / mib / put.Seconds(),
		"store.get_mb_per_s": total / mib / get.Seconds(),
	}, nil
}
