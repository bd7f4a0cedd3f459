package kernels

import (
	"math"
	"sort"
)

// BucketSort sorts non-negative integer keys < maxKey with the
// bucket-then-count strategy of NPB is: keys are scattered into buckets by
// their high bits (the phase that becomes an all-to-all in the distributed
// version), then each bucket is counting-sorted in parallel.
func BucketSort(keys []int32, maxKey int32, buckets int) []int32 {
	if len(keys) == 0 {
		return nil
	}
	if buckets < 1 {
		buckets = 1
	}
	width := (int(maxKey) + buckets - 1) / buckets
	if width < 1 {
		width = 1
	}
	bins := make([][]int32, buckets)
	for _, k := range keys {
		b := int(k) / width
		if b >= buckets {
			b = buckets - 1
		}
		bins[b] = append(bins[b], k)
	}
	// Sort buckets in parallel (counting sort within each bucket range).
	ParallelFor(buckets, func(lo, hi int) {
		for b := lo; b < hi; b++ {
			bin := bins[b]
			if len(bin) == 0 {
				continue
			}
			base := int32(b * width)
			counts := make([]int32, width)
			for _, k := range bin {
				counts[k-base]++
			}
			idx := 0
			for off, c := range counts {
				for ; c > 0; c-- {
					bin[idx] = base + int32(off)
					idx++
				}
			}
		}
	})
	out := make([]int32, 0, len(keys))
	for _, bin := range bins {
		out = append(out, bin...)
	}
	return out
}

// IsSorted reports whether keys are non-decreasing.
func IsSorted(keys []int32) bool {
	return sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] })
}

// KeyHistogram counts occurrences of each key value; sorting must preserve
// it (the permutation property test).
func KeyHistogram(keys []int32) map[int32]int {
	h := make(map[int32]int, len(keys))
	for _, k := range keys {
		h[k]++
	}
	return h
}

// NPBRandomKeys generates n pseudo-random keys in [0, maxKey) with NPB's
// multiplicative LCG (a = 5^13, modulus 2^46), the generator is/ep use.
type NPBRandom struct {
	seed float64
}

// NewNPBRandom seeds the generator (NPB uses 314159265).
func NewNPBRandom(seed float64) *NPBRandom { return &NPBRandom{seed: seed} }

const (
	npbA   = 1220703125.0 // 5^13
	npbR23 = 1.0 / (1 << 23)
	npbT23 = 1 << 23
	npbR46 = 1.0 / (1 << 46)
	npbT46 = 1 << 46
)

// Next returns the next uniform deviate in (0,1) using NPB's randlc: the
// multiplicative LCG x <- a*x mod 2^46 evaluated exactly in float64 by
// splitting both factors into 23-bit halves.
func (r *NPBRandom) Next() float64 {
	a1 := math.Trunc(npbR23 * npbA)
	a2 := npbA - npbT23*a1
	x1 := math.Trunc(npbR23 * r.seed)
	x2 := r.seed - npbT23*x1
	t1 := a1*x2 + a2*x1
	t2 := math.Trunc(npbR23 * t1)
	z := t1 - npbT23*t2
	t3 := npbT23*z + a2*x2
	t4 := math.Trunc(npbR46 * t3)
	r.seed = t3 - npbT46*t4
	return npbR46 * r.seed
}

// Keys draws n keys uniform in [0, maxKey).
func (r *NPBRandom) Keys(n int, maxKey int32) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(r.Next() * float64(maxKey))
		if out[i] >= maxKey {
			out[i] = maxKey - 1
		}
	}
	return out
}
