// Package coding implements the 802.11a channel-coding chain: the K=7
// rate-1/2 convolutional encoder (generators 133/171 octal), the 2/3 and 3/4
// puncturing patterns, the two-permutation block interleaver, and a
// soft-decision Viterbi decoder with erasure support.
//
// The erasure support is the paper's EVD (erasure Viterbi decoding, Sec.
// III-E): bit metrics belonging to erased symbols are forced to zero before
// decoding, so they contribute nothing to any path metric. The trellis and
// traceback are the standard Viterbi algorithm, unchanged.
package coding

import "math/bits"

// Convolutional code parameters fixed by IEEE 802.11a (17.3.5.5).
const (
	// ConstraintLength is the K=7 constraint length.
	ConstraintLength = 7
	// NumStates is the number of trellis states (2^(K-1)).
	NumStates = 1 << (ConstraintLength - 1)
	// GeneratorA is the first generator polynomial, 133 octal, with the MSB
	// weighting the current input bit.
	GeneratorA = 0o133
	// GeneratorB is the second generator polynomial, 171 octal.
	GeneratorB = 0o171
	// TailBits is the number of zero bits appended to flush the encoder.
	TailBits = ConstraintLength - 1
)

func parity(x uint) byte {
	return byte(bits.OnesCount(x) & 1)
}

// ConvEncode is ConvEncodeInto with a fresh destination.
func ConvEncode(in []byte) ([]byte, error) {
	return ConvEncodeInto(nil, in)
}

// branch describes one trellis transition used by the Viterbi decoder.
type branch struct {
	next uint8 // next state
	outA int8  // +1/-1 antipodal form of generator-A output
	outB int8  // +1/-1 antipodal form of generator-B output
}

// trellis holds the two outgoing branches (input bit 0 and 1) per state.
// It is computed once at package init; the code is fixed by the standard.
var trellis [NumStates][2]branch

func init() {
	for s := 0; s < NumStates; s++ {
		for b := uint(0); b <= 1; b++ {
			window := b<<6 | uint(s)
			a := parity(window & GeneratorA)
			bb := parity(window & GeneratorB)
			trellis[s][b] = branch{
				next: uint8(window >> 1),
				outA: int8(2*int(a) - 1),
				outB: int8(2*int(bb) - 1),
			}
		}
	}
}
