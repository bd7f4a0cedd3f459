package kernels

import (
	"errors"
	"math"
	"math/cmplx"
)

// FFT computes the in-place radix-2 Cooley-Tukey transform of x (length
// must be a power of two). inverse selects the inverse transform with the
// 1/n scaling. This is the computational core of NPB ft.
func FFT(x []complex128, inverse bool) error {
	n := len(x)
	if n == 0 || n&(n-1) != 0 {
		return errors.New("kernels: FFT length must be a power of two")
	}
	// Bit-reversal permutation.
	for i, j := 0, 0; i < n; i++ {
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
		mask := n >> 1
		for ; j&mask != 0; mask >>= 1 {
			j &^= mask
		}
		j |= mask
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for size := 2; size <= n; size <<= 1 {
		ang := sign * 2 * math.Pi / float64(size)
		wStep := cmplx.Exp(complex(0, ang))
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			half := size / 2
			for k := 0; k < half; k++ {
				a := x[start+k]
				b := x[start+k+half] * w
				x[start+k] = a + b
				x[start+k+half] = a - b
				w *= wStep
			}
		}
	}
	if inverse {
		inv := complex(1/float64(n), 0)
		for i := range x {
			x[i] *= inv
		}
	}
	return nil
}

// FFT2D transforms an nx x ny row-major complex field in place: rows in
// parallel, then columns in parallel — the transpose structure that makes
// distributed ft all-to-all heavy.
func FFT2D(data []complex128, nx, ny int, inverse bool) error {
	if len(data) != nx*ny {
		return errors.New("kernels: FFT2D size mismatch")
	}
	var rowErr error
	ParallelFor(nx, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if err := FFT(data[i*ny:(i+1)*ny], inverse); err != nil {
				rowErr = err
			}
		}
	})
	if rowErr != nil {
		return rowErr
	}
	var colErr error
	ParallelFor(ny, func(lo, hi int) {
		col := make([]complex128, nx)
		for j := lo; j < hi; j++ {
			for i := 0; i < nx; i++ {
				col[i] = data[i*ny+j]
			}
			if err := FFT(col, inverse); err != nil {
				colErr = err
			}
			for i := 0; i < nx; i++ {
				data[i*ny+j] = col[i]
			}
		}
	})
	return colErr
}

// FFTFlops returns the usual 5 n log2(n) FLOP count of a complex length-n
// transform.
func FFTFlops(n int) float64 {
	if n <= 1 {
		return 0
	}
	return 5 * float64(n) * math.Log2(float64(n))
}
