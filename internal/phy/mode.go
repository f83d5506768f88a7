// Package phy implements the 802.11a physical layer over the ofdm, coding,
// modulation, and bits packages: the eight transmission modes, the transmit
// chain (scramble, encode, puncture, interleave, map, OFDM-modulate), and
// the receive chain (channel estimation from the long training field,
// equalization, pilot-aided noise estimation, soft demapping, erasure-aware
// Viterbi decoding, descrambling).
//
// The receive chain is deliberately split into a front end and a decoder so
// the CoS energy detector can run between them on the raw FFT bins, mark
// silence symbols as erasures, and hand the mask to the decoder — exactly
// the architecture of the paper's Fig. 8.
package phy

import (
	"fmt"

	"cos/internal/coding"
	"cos/internal/modulation"
	"cos/internal/ofdm"
)

// Mode is one 802.11a transmission mode: a modulation scheme plus a
// convolutional code rate.
type Mode struct {
	// RateMbps is the nominal data rate in Mb/s and uniquely identifies
	// the mode.
	RateMbps int
	// Modulation is the subcarrier constellation.
	Modulation modulation.Scheme
	// CodeRate is the convolutional code rate.
	CodeRate coding.CodeRate
	// MinSNRdB is the minimum receiver SNR (dB) at which the SNR-based
	// rate adaptation scheme selects this mode. The table is calibrated to
	// the paper's anchor "24 Mb/s requires 12 dB" (Figs. 2-3).
	MinSNRdB float64
}

// modes lists the eight 802.11a modes in ascending rate order.
var modes = []Mode{
	{6, modulation.BPSK, coding.Rate1_2, 4.0},
	{9, modulation.BPSK, coding.Rate3_4, 5.5},
	{12, modulation.QPSK, coding.Rate1_2, 7.1},
	{18, modulation.QPSK, coding.Rate3_4, 9.5},
	{24, modulation.QAM16, coding.Rate1_2, 12.0},
	{36, modulation.QAM16, coding.Rate3_4, 16.0},
	{48, modulation.QAM64, coding.Rate2_3, 19.5},
	{54, modulation.QAM64, coding.Rate3_4, 22.0},
}

// Modes returns all eight 802.11a modes in ascending rate order.
// The returned slice is a copy.
func Modes() []Mode {
	out := make([]Mode, len(modes))
	copy(out, modes)
	return out
}

// ModeByRate looks a mode up by its nominal rate in Mb/s.
func ModeByRate(mbps int) (Mode, error) {
	for _, m := range modes {
		if m.RateMbps == mbps {
			return m, nil
		}
	}
	return Mode{}, fmt.Errorf("phy: no 802.11a mode with rate %d Mb/s", mbps)
}

// EvaluatedModes returns the six modes the paper's Fig. 9 experiments with
// (12 through 54 Mb/s).
func EvaluatedModes() []Mode {
	out := make([]Mode, 0, 6)
	for _, m := range modes {
		if m.RateMbps >= 12 {
			out = append(out, m)
		}
	}
	return out
}

// String returns e.g. "(16QAM,1/2) 24 Mb/s".
func (m Mode) String() string {
	return fmt.Sprintf("(%v,%v) %d Mb/s", m.Modulation, m.CodeRate, m.RateMbps)
}

// NBPSC returns the coded bits per subcarrier.
func (m Mode) NBPSC() int { return m.Modulation.BitsPerSymbol() }

// NCBPS returns the coded bits per OFDM symbol.
func (m Mode) NCBPS() int { return ofdm.NumData * m.NBPSC() }

// NDBPS returns the data bits per OFDM symbol.
func (m Mode) NDBPS() int {
	num, den := m.CodeRate.Fraction()
	return m.NCBPS() * num / den
}

// Valid reports whether the mode's parameters are consistent.
func (m Mode) Valid() bool {
	return m.Modulation.Valid() && m.CodeRate.Valid() && m.NDBPS() > 0
}

// SymbolsForPSDU returns the number of OFDM symbols needed to carry a PSDU
// of psduLen bytes (SERVICE + data + tail, padded to a whole symbol).
func (m Mode) SymbolsForPSDU(psduLen int) int {
	nBits := serviceBits + 8*psduLen + coding.TailBits
	return (nBits + m.NDBPS() - 1) / m.NDBPS()
}

// SelectMode implements the SNR-based rate adaptation of [Holland et al.]
// that both the paper and this reproduction adopt: the fastest mode whose
// minimum required SNR is at or below the measured SNR. Below the slowest
// mode's threshold the slowest mode is returned (the sender must send
// something).
func SelectMode(measuredSNRdB float64) Mode {
	best := modes[0]
	for _, m := range modes {
		if measuredSNRdB >= m.MinSNRdB {
			best = m
		}
	}
	return best
}
