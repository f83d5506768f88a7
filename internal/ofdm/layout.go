// Package ofdm implements the 802.11a OFDM waveform: the 64-subcarrier
// layout (48 data + 4 pilot + guards), pilot polarity sequence, cyclic
// prefix insertion/removal around the 64-point IFFT/FFT, and the short/long
// training preamble used for channel and noise estimation.
package ofdm

import (
	"fmt"

	"cos/internal/bits"
)

// Fixed 802.11a OFDM numerology (17.3.2).
const (
	// NumSubcarriers is the FFT size.
	NumSubcarriers = 64
	// NumData is the number of data subcarriers per OFDM symbol.
	NumData = 48
	// NumPilots is the number of pilot subcarriers per OFDM symbol.
	NumPilots = 4
	// CPLen is the cyclic prefix length in samples (800 ns at 20 MHz).
	CPLen = 16
	// SymbolLen is the total OFDM symbol length in samples (4 us at 20 MHz).
	SymbolLen = NumSubcarriers + CPLen
	// SampleRate is the 802.11a baseband sample rate in Hz.
	SampleRate = 20e6
)

// PilotIndices lists the logical pilot subcarrier positions.
var PilotIndices = [NumPilots]int{-21, -7, 7, 21}

// pilotBase holds the un-polarized pilot values for subcarriers -21,-7,7,21.
var pilotBase = [NumPilots]complex128{1, 1, 1, -1}

// dataIndices caches the 48 logical data subcarrier indices in ascending
// order (-26..26 excluding 0 and the pilots).
var dataIndices = buildDataIndices()

func buildDataIndices() []int {
	pilot := map[int]bool{}
	for _, p := range PilotIndices {
		pilot[p] = true
	}
	out := make([]int, 0, NumData)
	for k := -26; k <= 26; k++ {
		if k == 0 || pilot[k] {
			continue
		}
		out = append(out, k)
	}
	return out
}

// DataIndex returns the logical subcarrier index of data subcarrier i
// (0 <= i < 48, ascending order — the numbering used by the paper's
// per-subcarrier EVM and SER plots).
func DataIndex(i int) (int, error) {
	if i < 0 || i >= NumData {
		return 0, fmt.Errorf("ofdm: data subcarrier %d out of range [0,%d)", i, NumData)
	}
	return dataIndices[i], nil
}

// Bin converts a logical subcarrier index (-32..31) to its FFT bin (0..63).
func Bin(logical int) (int, error) {
	if logical < -NumSubcarriers/2 || logical >= NumSubcarriers/2 {
		return 0, fmt.Errorf("ofdm: logical subcarrier %d out of range", logical)
	}
	if logical < 0 {
		return NumSubcarriers + logical, nil
	}
	return logical, nil
}

// pilotPolarity is the 127-element ±1 sequence p_n of 17.3.5.9, generated by
// the scrambler with the all-ones seed (0 -> +1, 1 -> -1).
var pilotPolarity = buildPilotPolarity()

func buildPilotPolarity() []int8 {
	s := bits.NewScrambler(0x7F)
	seq := s.Sequence(127)
	out := make([]int8, 127)
	for i, b := range seq {
		out[i] = int8(1 - 2*int(b))
	}
	return out
}

// PilotPolarity returns p_n for OFDM symbol n (n = 0 is the SIGNAL symbol;
// data symbols start at 1). The sequence repeats with period 127.
func PilotPolarity(n int) int8 {
	if n < 0 {
		n = -n
	}
	return pilotPolarity[n%127]
}

// PilotValue returns the frequency-domain pilot value transmitted on pilot
// p (0..3) of OFDM symbol n.
func PilotValue(p, n int) (complex128, error) {
	if p < 0 || p >= NumPilots {
		return 0, fmt.Errorf("ofdm: pilot index %d out of range", p)
	}
	return pilotBase[p] * complex(float64(PilotPolarity(n)), 0), nil
}
