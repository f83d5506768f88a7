package cos

// The paper's control messages are raw bit strings: the receiver has no way
// to tell a corrupted message from a good one (a single detection error
// shifts every subsequent interval). This file adds the minimal framing a
// deployable CoS needs — an 8-bit length header and an 8-bit CRC — so the
// receiver can validate what it extracted and discard garbage.

// MaxFramedPayloadBits is the largest control payload the 8-bit length
// header can describe.
const MaxFramedPayloadBits = 255

// frameOverheadBits is the header+CRC cost of framing.
const frameOverheadBits = 16

// crc8Poly is the CRC-8-CCITT polynomial x^8+x^2+x+1.
const crc8Poly = 0x07

// crc8Bits computes a bitwise CRC-8 over a bit slice (MSB-first).
func crc8Bits(bits []byte) byte {
	var crc byte
	for _, b := range bits {
		crc ^= (b & 1) << 7
		if crc&0x80 != 0 {
			crc = crc<<1 ^ crc8Poly
		} else {
			crc <<= 1
		}
	}
	return crc
}

// ParseControl validates and unwraps a framed control message from the
// (possibly longer) extracted bit stream. ok is false when the stream is
// too short, the length is inconsistent, or the CRC fails.
func ParseControl(bits []byte) (payload []byte, ok bool) {
	if len(bits) < frameOverheadBits {
		return nil, false
	}
	n := 0
	for i := 0; i < 8; i++ {
		n = n<<1 | int(bits[i]&1)
	}
	total := 8 + n + 8
	if len(bits) < total {
		return nil, false
	}
	var crc byte
	for i := 0; i < 8; i++ {
		crc = crc<<1 | (bits[8+n+i] & 1)
	}
	if crc8Bits(bits[:8+n]) != crc {
		return nil, false
	}
	out := make([]byte, n)
	copy(out, bits[8:8+n])
	return out, true
}

// FramedBits returns the on-air bit cost of a payload of n bits with
// framing and padding to a multiple of k.
func FramedBits(n, k int) int {
	total := n + frameOverheadBits
	if k > 1 && total%k != 0 {
		total += k - total%k
	}
	return total
}
