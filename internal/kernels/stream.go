package kernels

import "time"

// This file implements the STREAM benchmark (McCalpin) the paper uses to
// measure each system's memory bandwidth: Copy, Scale, Add, and Triad
// over arrays sized well beyond any cache. The measured Triad rate is
// what calibrates the soc configs' MemBandwidth fields.

// StreamResult reports one STREAM kernel's measured bandwidth.
type StreamResult struct {
	Name     string
	Bytes    float64 // bytes moved per iteration
	Seconds  float64 // best time over the trials
	BytesPer float64 // bytes/second
}

// StreamCopy runs c = a.
func StreamCopy(a, c []float64) {
	parallelFor(len(a), func(lo, hi int) {
		copy(c[lo:hi], a[lo:hi])
	})
}

// StreamScale runs b = s*c.
func StreamScale(b, c []float64, s float64) {
	parallelFor(len(b), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			b[i] = s * c[i]
		}
	})
}

// StreamAdd runs c = a + b.
func StreamAdd(a, b, c []float64) {
	parallelFor(len(a), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			c[i] = a[i] + b[i]
		}
	})
}

// StreamTriad runs a = b + s*c — the headline STREAM kernel. a may
// alias c: each element is read before it is written.
func StreamTriad(a, b, c []float64, s float64) {
	parallelFor(len(a), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			a[i] = b[i] + s*c[i]
		}
	})
}

// RunStream measures all four kernels over arrays of n doubles with the
// given number of trials (best-of, per STREAM convention) and returns the
// results in the canonical order.
func RunStream(n, trials int) []StreamResult {
	if n < 1 {
		n = 1
	}
	if trials < 1 {
		trials = 1
	}
	a := make([]float64, n)
	b := make([]float64, n)
	c := make([]float64, n)
	for i := range a {
		a[i] = 1
		b[i] = 2
		c[i] = 0.5
	}
	fn := float64(n)
	cases := []struct {
		name  string
		bytes float64
		run   func()
	}{
		{"Copy", 2 * 8 * fn, func() { StreamCopy(a, c) }},
		{"Scale", 2 * 8 * fn, func() { StreamScale(b, c, 3.0) }},
		{"Add", 3 * 8 * fn, func() { StreamAdd(a, b, c) }},
		{"Triad", 3 * 8 * fn, func() { StreamTriad(a, b, c, 3.0) }},
	}
	out := make([]StreamResult, 0, len(cases))
	for _, cse := range cases {
		best := 0.0
		for t := 0; t < trials; t++ {
			start := time.Now()
			cse.run()
			dur := time.Since(start).Seconds()
			if best == 0 || dur < best {
				best = dur
			}
		}
		r := StreamResult{Name: cse.name, Bytes: cse.bytes, Seconds: best}
		if best > 0 {
			r.BytesPer = cse.bytes / best
		}
		out = append(out, r)
	}
	return out
}
