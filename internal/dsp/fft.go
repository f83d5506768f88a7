// Package dsp provides the signal-processing primitives the 802.11a PHY
// simulation is built on: a radix-2 FFT/IFFT, power and decibel helpers, and
// small statistics utilities.
//
// Everything here is implemented from scratch on top of the standard library
// so the repository has no external dependencies.
package dsp

import (
	"fmt"
	"math"
	"math/bits"
)

// IsPowerOfTwo reports whether n is a positive power of two.
func IsPowerOfTwo(n int) bool {
	return n > 0 && n&(n-1) == 0
}

// FFT computes the discrete Fourier transform of x using an iterative
// radix-2 decimation-in-time algorithm and returns a newly allocated result.
// The convention matches the paper's Eq. (4):
//
//	X[k] = sum_{n=0}^{N-1} x[n] * exp(-j*2*pi*n*k/N)
//
// len(x) must be a positive power of two.
func FFT(x []complex128) ([]complex128, error) {
	out := make([]complex128, len(x))
	copy(out, x)
	if err := FFTInPlace(out); err != nil {
		return nil, err
	}
	return out, nil
}

// IFFT computes the inverse discrete Fourier transform of x and returns a
// newly allocated result. The convention matches the paper's Eq. (3):
//
//	x[n] = (1/N) * sum_{k=0}^{N-1} X[k] * exp(+j*2*pi*n*k/N)
//
// len(x) must be a positive power of two.
func IFFT(x []complex128) ([]complex128, error) {
	out := make([]complex128, len(x))
	copy(out, x)
	if err := IFFTInPlace(out); err != nil {
		return nil, err
	}
	return out, nil
}

// FFTInto computes the forward DFT of x into dst, leaving x unchanged.
// len(dst) must equal len(x), which must be a positive power of two; dst
// and x must not overlap unless they are the same slice.
func FFTInto(dst, x []complex128) error {
	if len(dst) != len(x) {
		return fmt.Errorf("dsp: FFT destination length %d != input length %d", len(dst), len(x))
	}
	if len(x) > 0 && &dst[0] != &x[0] {
		copy(dst, x)
	}
	return FFTInPlace(dst)
}

// FFTInPlace computes the forward DFT of x in place.
// len(x) must be a positive power of two.
func FFTInPlace(x []complex128) error {
	return transform(x, false)
}

// IFFTInPlace computes the inverse DFT of x in place, including the 1/N
// scaling. len(x) must be a positive power of two.
func IFFTInPlace(x []complex128) error {
	if err := transform(x, true); err != nil {
		return err
	}
	scale := complex(1/float64(len(x)), 0)
	for i := range x {
		x[i] *= scale
	}
	return nil
}

// transform runs the shared radix-2 butterfly schedule. inverse selects the
// twiddle-factor sign; scaling for the inverse transform is applied by the
// caller.
func transform(x []complex128, inverse bool) error {
	n := len(x)
	if !IsPowerOfTwo(n) {
		return fmt.Errorf("dsp: FFT length %d is not a positive power of two", n)
	}
	if n == 1 {
		return nil
	}

	// Bit-reversal permutation.
	shift := bits.UintSize - uint(bits.Len(uint(n-1)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse(uint(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}

	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for size := 2; size <= n; size <<= 1 {
		half := size / 2
		step := sign * 2 * math.Pi / float64(size)
		// w = exp(j*step) advanced incrementally per butterfly column.
		wStep := complex(math.Cos(step), math.Sin(step))
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			for k := 0; k < half; k++ {
				a := x[start+k]
				b := x[start+k+half] * w
				x[start+k] = a + b
				x[start+k+half] = a - b
				w *= wStep
			}
		}
	}
	return nil
}
