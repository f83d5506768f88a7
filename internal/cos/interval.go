// Package cos implements the paper's contribution: communication through
// symbol silence. Control bits are encoded into the intervals between
// silence symbols inserted on selected (weak) data subcarriers of an
// 802.11a packet; the receiver locates the silences by symbol-level energy
// detection on the raw FFT output and recovers the erased data symbols
// through erasure Viterbi decoding.
//
// The package provides the four mechanisms of Sec. III: the interval
// modulation/demodulation of control messages, the pilot-aided adaptive
// energy detector, the EVM-driven subcarrier selection with its one-symbol
// feedback encoding, and the SNR-indexed control-message rate adaptation.
package cos

import (
	"fmt"

	"cos/internal/ofdm"
)

// DefaultBitsPerInterval is k, the number of control bits conveyed by one
// inter-silence interval (k = 4 in the paper, giving intervals 0..15).
const DefaultBitsPerInterval = 4

// Pos addresses one data symbol in a packet: payload OFDM symbol index and
// data subcarrier slot within the control-subcarrier traversal.
type Pos struct {
	// Sym is the payload OFDM symbol (time slot) index.
	Sym int
	// SC is the data subcarrier index (0..47).
	SC int
}

// MaxMessageBits returns the number of control bits guaranteed to fit in a
// packet of numSymbols symbols over nCtrl control subcarriers with k bits
// per interval, assuming worst-case (maximum) intervals.
func MaxMessageBits(numSymbols, nCtrl, k int) int {
	if numSymbols < 1 || nCtrl < 1 || k < 1 {
		return 0
	}
	capacity := numSymbols * nCtrl
	// Worst case: every interval is 2^k - 1, costing 2^k positions, plus
	// the start marker.
	maxIntervals := (capacity - 1) / (1 << k)
	return maxIntervals * k
}

func validateCtrlSCs(ctrlSCs []int) error {
	if len(ctrlSCs) == 0 {
		return fmt.Errorf("cos: no control subcarriers")
	}
	prev := -1
	for _, sc := range ctrlSCs {
		if sc < 0 || sc >= ofdm.NumData {
			return fmt.Errorf("cos: control subcarrier %d out of range [0,%d)", sc, ofdm.NumData)
		}
		if sc <= prev {
			return fmt.Errorf("cos: control subcarriers must be strictly ascending, got %v", ctrlSCs)
		}
		prev = sc
	}
	return nil
}
