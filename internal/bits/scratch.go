package bits

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Each kernel below writes into a caller-owned destination slice, growing
// it only when its capacity is insufficient, and returns the (possibly
// re-sliced) destination; a nil destination allocates. Destinations must
// not alias inputs.

func grow(s []byte, n int) []byte {
	if cap(s) < n {
		return make([]byte, n)
	}
	return s[:n]
}

// ScrambleInto XORs the scrambling sequence over in and writes the result
// into dst. in must be a bit slice (elements 0 or 1).
func (s *Scrambler) ScrambleInto(dst, in []byte) []byte {
	dst = grow(dst, len(in))
	for i, b := range in {
		dst[i] = (b ^ s.Next()) & 1
	}
	return dst
}

// FromBytesInto expands data into one bit per element of dst, LSB first
// within each byte, matching the 802.11 convention that the
// least-significant bit of each octet is transmitted first.
func FromBytesInto(dst, data []byte) []byte {
	dst = grow(dst, len(data)*8)
	for j, b := range data {
		for i := 0; i < 8; i++ {
			dst[j*8+i] = (b >> i) & 1
		}
	}
	return dst
}

// ToBytesInto packs a bit slice (LSB first per octet) back into bytes in
// dst. len(bits) must be a multiple of 8.
func ToBytesInto(dst, bits []byte) ([]byte, error) {
	if len(bits)%8 != 0 {
		return nil, fmt.Errorf("bits: length %d is not a multiple of 8", len(bits))
	}
	dst = grow(dst, len(bits)/8)
	for i := range dst {
		dst[i] = 0
	}
	for i, b := range bits {
		if b > 1 {
			return nil, fmt.Errorf("bits: element %d = %d is not a bit", i, b)
		}
		dst[i/8] |= b << (i % 8)
	}
	return dst, nil
}

// AppendFCSInto writes data followed by its IEEE CRC-32 frame check
// sequence (little-endian, per 802.11 octet ordering) into dst.
func AppendFCSInto(dst, data []byte) []byte {
	dst = grow(dst, len(data)+FCSLen)
	copy(dst, data)
	binary.LittleEndian.PutUint32(dst[len(data):], crc32.ChecksumIEEE(data))
	return dst
}
