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
