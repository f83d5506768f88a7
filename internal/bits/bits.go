// Package bits provides bit-level utilities used throughout the 802.11a PHY:
// byte/bit conversion in transmission order, the 802.11 data scrambler, and
// the 32-bit frame check sequence.
//
// Throughout this package (and the PHY) a "bit slice" is a []byte whose
// elements are each 0 or 1. This representation trades memory for clarity
// and makes interleaving, puncturing, and erasure bookkeeping trivial.
package bits

import "fmt"

// Equal reports whether two bit slices have identical length and contents.
func Equal(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Diff returns the number of positions at which a and b differ. Slices of
// unequal length compare over the shorter prefix, with the length difference
// added (every overhanging bit counts as an error).
func Diff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	d := len(a) + len(b) - 2*n
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			d++
		}
	}
	return d
}

// PackUint encodes the low n bits of v into a bit slice, LSB first.
func PackUint(v uint64, n int) []byte {
	out := make([]byte, n)
	for i := 0; i < n; i++ {
		out[i] = byte((v >> i) & 1)
	}
	return out
}

// UnpackUint decodes a bit slice (LSB first) into an unsigned integer.
// len(b) must be at most 64.
func UnpackUint(b []byte) (uint64, error) {
	if len(b) > 64 {
		return 0, fmt.Errorf("bits: cannot unpack %d bits into uint64", len(b))
	}
	var v uint64
	for i, bit := range b {
		if bit > 1 {
			return 0, fmt.Errorf("bits: element %d = %d is not a bit", i, bit)
		}
		v |= uint64(bit) << i
	}
	return v, nil
}
