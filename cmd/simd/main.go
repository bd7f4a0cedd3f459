// Command simd serves the run-plane over HTTP: simulation as a service.
//
// Clients POST batches of scenario requests to /simulate and read results
// back as an NDJSON stream, one line per scenario in completion order.
// Every request resolves to the run-plane's canonical fingerprint and is
// served through the cache tiers — in-memory map, persistent store, then
// simulation — with duplicate in-flight requests coalesced across
// clients, a bounded admission queue (429 + Retry-After under pressure),
// and per-client token-bucket rate limits. /statusz reports the serving,
// run-plane, and store counters; SIGINT/SIGTERM drains gracefully.
//
//	simd -store /var/cache/clustersoc          # durable, shared answers
//	simd -addr :9000 -rate 50 -burst 100       # rate-limited public face
//	curl -d '{"requests":[{"workload":"cg"}]}' localhost:8080/simulate
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"clustersoc/internal/runflags"
	"clustersoc/internal/simd"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		rf         = runflags.Register(flag.CommandLine, runflags.Store|runflags.Parallel)
		maxPending = flag.Int("max-pending", 256, "admission bound: max admitted-but-unfinished scenarios before batches get 429")
		maxBatch   = flag.Int("max-batch", 0, "max scenarios per POST (0 = max-pending)")
		rate       = flag.Float64("rate", 0, "per-client rate limit in scenario requests/s (0 = unlimited)")
		burst      = flag.Int("burst", 0, "per-client burst size (0 = max(1, rate)); with -rate it also caps -max-batch")
		drainWait  = flag.Duration("drain-timeout", 30*time.Second, "max wait for in-flight streams on shutdown")
	)
	flag.Parse()
	switch {
	case *maxPending < 1:
		usage("-max-pending must be at least 1, got %d", *maxPending)
	case *maxBatch < 0:
		usage("-max-batch must be at least 0, got %d", *maxBatch)
	case !(*rate >= 0) || math.IsInf(*rate, 1):
		usage("-rate must be finite and at least 0, got %g", *rate)
	case *burst < 0:
		usage("-burst must be at least 0, got %d", *burst)
	case *drainWait < 0:
		usage("-drain-timeout must not be negative, got %s", *drainWait)
	}

	r, err := rf.Runner()
	if err != nil {
		fmt.Fprintln(os.Stderr, "simd:", err)
		os.Exit(1)
	}
	s, err := simd.NewServer(simd.Config{
		Runner:     r,
		MaxPending: *maxPending,
		MaxBatch:   *maxBatch,
		RatePerSec: *rate,
		Burst:      *burst,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "simd:", err)
		os.Exit(1)
	}

	srv := &http.Server{Addr: *addr, Handler: s.Handler()}
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe() }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	fmt.Fprintf(os.Stderr, "simd: serving on %s (%d workers", *addr, r.Workers())
	if ps := r.Store(); ps != nil {
		fmt.Fprintf(os.Stderr, ", store %s schema %d", ps.Dir(), ps.Schema())
	}
	fmt.Fprintln(os.Stderr, ")")

	select {
	case err := <-done:
		// The listener failed before any signal (bad address, port taken).
		fmt.Fprintln(os.Stderr, "simd:", err)
		os.Exit(1)
	case got := <-sig:
		fmt.Fprintf(os.Stderr, "simd: %s — draining (up to %s for in-flight streams)\n", got, *drainWait)
	}

	// Drain: stop admitting, then let http.Server.Shutdown wait for the
	// active NDJSON streams to finish.
	s.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "simd: drain timeout exceeded, aborting in-flight streams:", err)
	}
	if err := <-done; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "simd:", err)
	}

	runflags.Report(os.Stderr, r)
}

// usage reports a bad flag value and exits 2, before anything listens.
func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "simd: "+format+"\n", args...)
	os.Exit(2)
}
