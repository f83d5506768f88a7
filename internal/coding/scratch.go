package coding

import (
	"fmt"
	"sync"
)

// The coding-chain kernels. Each XxxInto function writes into a caller-owned
// destination slice, growing it only when its capacity is insufficient, and
// returns the (possibly re-sliced) destination; a nil destination
// allocates. The destination must not alias the input.

func growBytes(s []byte, n int) []byte {
	if cap(s) < n {
		return make([]byte, n)
	}
	return s[:n]
}

func growFloat64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// interleaverCache shares Interleaver instances per (NCBPS, NBPSC) pair.
// The permutation tables are read-only after construction, so one instance
// can serve any number of goroutines.
var interleaverCache struct {
	mu sync.RWMutex
	m  map[[2]int]*Interleaver
}

// CachedInterleaver returns a shared, immutable Interleaver for the given
// parameters, building it at most once per process. The eight 802.11a modes
// use only four distinct NCBPS values, so the cache stays tiny.
func CachedInterleaver(ncbps, nbpsc int) (*Interleaver, error) {
	key := [2]int{ncbps, nbpsc}
	interleaverCache.mu.RLock()
	il := interleaverCache.m[key]
	interleaverCache.mu.RUnlock()
	if il != nil {
		return il, nil
	}
	il, err := NewInterleaver(ncbps, nbpsc)
	if err != nil {
		return nil, err
	}
	interleaverCache.mu.Lock()
	if interleaverCache.m == nil {
		interleaverCache.m = make(map[[2]int]*Interleaver)
	}
	if existing := interleaverCache.m[key]; existing != nil {
		il = existing
	} else {
		interleaverCache.m[key] = il
	}
	interleaverCache.mu.Unlock()
	return il, nil
}

// InterleaveInto permutes in (whose length must be a multiple of NCBPS)
// block by block into dst.
func InterleaveInto[T any](il *Interleaver, dst, in []T) ([]T, error) {
	return applyBlocksInto(dst, in, il.ncbps, il.perm)
}

// DeinterleaveInto applies the inverse permutation block by block into dst.
func DeinterleaveInto[T any](il *Interleaver, dst, in []T) ([]T, error) {
	return applyBlocksInto(dst, in, il.ncbps, il.inv)
}

func applyBlocksInto[T any](dst, in []T, block int, perm []int) ([]T, error) {
	if len(in)%block != 0 {
		return nil, fmt.Errorf("coding: length %d is not a multiple of block size %d", len(in), block)
	}
	if cap(dst) < len(in) {
		dst = make([]T, len(in))
	}
	dst = dst[:len(in)]
	for base := 0; base < len(in); base += block {
		for k, j := range perm {
			dst[base+j] = in[base+k]
		}
	}
	return dst, nil
}

// ConvEncodeInto encodes a bit slice with the 802.11a rate-1/2
// convolutional code into dst. The output interleaves the two generator
// streams as A0 B0 A1 B1 ... and has exactly 2*len(in) bits. The encoder
// starts in the all-zero state; callers wanting a terminated trellis must
// append TailBits zero bits to in (the PHY layer does this as part of
// padding).
func ConvEncodeInto(dst, in []byte) ([]byte, error) {
	dst = growBytes(dst, 2*len(in))
	state := uint(0) // 6 most recent input bits; bit 5 is the newest.
	for i, b := range in {
		if b > 1 {
			return nil, fmt.Errorf("coding: input element %d = %d is not a bit", i, b)
		}
		window := uint(b)<<6 | state
		dst[2*i] = parity(window & GeneratorA)
		dst[2*i+1] = parity(window & GeneratorB)
		state = window >> 1
	}
	return dst, nil
}

// PunctureInto drops coded bits from the rate-1/2 stream according to the
// rate's pattern, writing the survivors into dst. len(in) must be a
// multiple of the pattern period (the PHY pads data so this always holds).
func PunctureInto(dst, in []byte, r CodeRate) ([]byte, error) {
	if !r.Valid() {
		return nil, fmt.Errorf("coding: invalid code rate %d", int(r))
	}
	pat := r.puncturePattern()
	if len(in)%len(pat) != 0 {
		return nil, fmt.Errorf("coding: input length %d is not a multiple of puncture period %d", len(in), len(pat))
	}
	if r == Rate1_2 {
		dst = growBytes(dst, len(in))
		copy(dst, in)
		return dst, nil
	}
	kept := 0
	for _, k := range pat {
		if k {
			kept++
		}
	}
	n := len(in) / len(pat) * kept
	dst = growBytes(dst, n)
	w := 0
	for i, b := range in {
		if pat[i%len(pat)] {
			dst[w] = b
			w++
		}
	}
	return dst, nil
}

// DepunctureMetricsInto reinserts zero (erasure) metrics at punctured
// positions, restoring the mother-code length in dst. A zero metric carries
// no information, so the Viterbi decoder treats punctured bits exactly like
// erased bits.
func DepunctureMetricsInto(dst, in []float64, r CodeRate) ([]float64, error) {
	if !r.Valid() {
		return nil, fmt.Errorf("coding: invalid code rate %d", int(r))
	}
	pat := r.puncturePattern()
	kept := 0
	for _, k := range pat {
		if k {
			kept++
		}
	}
	if len(in)%kept != 0 {
		return nil, fmt.Errorf("coding: punctured length %d is not a multiple of %d", len(in), kept)
	}
	n := len(in) * len(pat) / kept
	dst = growFloat64(dst, n)
	src, w := 0, 0
	for w < n {
		for _, k := range pat {
			if k {
				dst[w] = in[src]
				src++
			} else {
				dst[w] = 0
			}
			w++
		}
	}
	return dst, nil
}
