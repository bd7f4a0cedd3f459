package kernels

// Blocked (tiled) matrix multiply — the cache-blocking that separates a
// naive GEMM from an OpenBLAS-grade one, and the reason hpl's trailing
// update has a tunable operational intensity: a BxB tile keeps ~3B^2
// values hot, turning ~2 DRAM touches per FLOP into ~2/B.

// MatMulBlocked computes c = a*b with square tiling (block size bs).
// The block size must be positive: a non-positive bs is a caller bug
// (it would silently change the modeled operational intensity), so it is
// rejected rather than defaulted.
func MatMulBlocked(a, b *Matrix, bs int) (*Matrix, error) {
	if a.Cols != b.Rows {
		return nil, errDim
	}
	if bs <= 0 {
		return nil, errBlockSize
	}
	c := NewMatrix(a.Rows, b.Cols)
	n, m, k := a.Rows, b.Cols, a.Cols
	// Parallel over row-tiles; each goroutine owns disjoint C rows.
	tiles := (n + bs - 1) / bs
	ParallelFor(tiles, func(tlo, thi int) {
		for t := tlo; t < thi; t++ {
			i0 := t * bs
			i1 := i0 + bs
			if i1 > n {
				i1 = n
			}
			for k0 := 0; k0 < k; k0 += bs {
				k1 := k0 + bs
				if k1 > k {
					k1 = k
				}
				for j0 := 0; j0 < m; j0 += bs {
					j1 := j0 + bs
					if j1 > m {
						j1 = m
					}
					for i := i0; i < i1; i++ {
						crow := c.Data[i*m : (i+1)*m]
						for kk := k0; kk < k1; kk++ {
							av := a.Data[i*k+kk]
							if av == 0 {
								continue
							}
							brow := b.Data[kk*m : (kk+1)*m]
							for j := j0; j < j1; j++ {
								crow[j] += av * brow[j]
							}
						}
					}
				}
			}
		}
	})
	return c, nil
}

// errDim is the shared dimension-mismatch error.
var errDim = errDimension{}

type errDimension struct{}

func (errDimension) Error() string { return "kernels: matrix dimension mismatch" }

// ErrBlockSize rejects MatMulBlocked calls with a non-positive tile.
var errBlockSize = errBlock{}

type errBlock struct{}

func (errBlock) Error() string { return "kernels: block size must be positive" }

// GEMMOperationalIntensity returns the DRAM-level FLOP/byte of a blocked
// GEMM with tile size bs on 8-byte values: each tile pass streams ~3
// blocks for 2*bs^3 FLOPs.
func GEMMOperationalIntensity(bs int) float64 {
	if bs < 1 {
		bs = 1
	}
	return 2 * float64(bs) / (3 * 8)
}
