package simd

import (
	"math"
	"sync"
	"time"
)

// limiter is a per-client token-bucket rate limiter: each client
// identity gets a bucket of `burst` tokens refilled at `rate` tokens per
// second, and each scenario request spends one token. Buckets are
// created full on first sight, so a new client can burst immediately;
// a drained bucket yields the wait until enough tokens accrue, which
// the server surfaces as Retry-After.
type limiter struct {
	rate  float64 // tokens per second
	burst float64

	mu      sync.Mutex
	buckets map[string]*bucket
}

type bucket struct {
	tokens float64
	last   time.Time
}

// newLimiter returns a limiter, or nil when rate <= 0 (unlimited).
func newLimiter(rate float64, burst int) *limiter {
	if rate <= 0 {
		return nil
	}
	b := float64(burst)
	if b < 1 {
		b = math.Max(1, rate)
	}
	return &limiter{rate: rate, burst: b, buckets: map[string]*bucket{}}
}

// take spends n tokens from client's bucket. When the bucket holds too
// few, nothing is spent and the second return is how long until n are
// available — the Retry-After hint. n never exceeds the burst: the
// server caps its batch bound there. A nil limiter always admits.
func (l *limiter) take(client string, n int, now time.Time) (ok bool, wait time.Duration) {
	if l == nil {
		return true, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	b, found := l.buckets[client]
	if !found {
		b = &bucket{tokens: l.burst, last: now}
		l.buckets[client] = b
	} else {
		b.tokens = math.Min(l.burst, b.tokens+now.Sub(b.last).Seconds()*l.rate)
		b.last = now
	}
	need := float64(n)
	if b.tokens >= need {
		b.tokens -= need
		return true, 0
	}
	return false, time.Duration((need - b.tokens) / l.rate * float64(time.Second))
}
