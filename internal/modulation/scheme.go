// Package modulation implements the 802.11a constellation mappings
// (17.3.5.7): Gray-coded BPSK, QPSK, 16-QAM and 64-QAM with the standard
// normalization factors, a hard demapper, a soft max-log demapper producing
// the per-bit metrics of the paper's Eq. (8), and the normalized EVM change
// of Eq. (2). The per-subcarrier EVM of Eq. (1) is accumulated by
// phy.Diagnose.
package modulation

import (
	"fmt"
	"math"
)

// Scheme identifies a modulation scheme.
type Scheme int

// The four 802.11a modulation schemes.
const (
	BPSK Scheme = iota + 1
	QPSK
	QAM16
	QAM64
)

// String returns the conventional name of the scheme.
func (s Scheme) String() string {
	switch s {
	case BPSK:
		return "BPSK"
	case QPSK:
		return "QPSK"
	case QAM16:
		return "16QAM"
	case QAM64:
		return "64QAM"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// Valid reports whether s is one of the defined schemes.
func (s Scheme) Valid() bool { return s >= BPSK && s <= QAM64 }

// BitsPerSymbol returns NBPSC, the number of coded bits carried by one
// subcarrier symbol. It returns 0 for an invalid scheme.
func (s Scheme) BitsPerSymbol() int {
	switch s {
	case BPSK:
		return 1
	case QPSK:
		return 2
	case QAM16:
		return 4
	case QAM64:
		return 6
	default:
		return 0
	}
}

// Norm returns the 802.11a normalization factor Kmod that scales the integer
// constellation to unit average power.
func (s Scheme) Norm() float64 {
	switch s {
	case BPSK:
		return 1
	case QPSK:
		return 1 / math.Sqrt2
	case QAM16:
		return 1 / math.Sqrt(10)
	case QAM64:
		return 1 / math.Sqrt(42)
	default:
		return 0
	}
}

// MinDistance returns Dm, the distance between the two nearest points of the
// normalized constellation. The paper's subcarrier selection compares
// per-subcarrier EVM against Dm/2 (Sec. III-D).
func (s Scheme) MinDistance() float64 {
	return 2 * s.Norm()
}

// MinPointEnergy returns the squared magnitude of the weakest point of the
// normalized constellation (1 for BPSK/QPSK, 0.2 for 16QAM, 2/42 for
// 64QAM). Energy detection of silence symbols must discriminate against
// this inner-point energy, not the unit average.
func (s Scheme) MinPointEnergy() float64 {
	n := s.Norm()
	switch s {
	case BPSK:
		return 1
	case QPSK:
		return 1
	case QAM16, QAM64:
		return 2 * n * n // innermost point at (+-1, +-1) * Kmod
	default:
		return 0
	}
}

// axisLevels returns the Gray-coded PAM levels of one axis, indexed by the
// integer value of the axis bits (LSB-first within the axis), in integer
// (unnormalized) units.
//
// 802.11a encodes each axis independently:
//
//	1 bit:  0 -> -1, 1 -> +1
//	2 bits: 00 -> -3, 01 -> -1, 11 -> +1, 10 -> +3
//	3 bits: 000 -> -7, 001 -> -5, 011 -> -3, 010 -> -1,
//	        110 -> +1, 111 -> +3, 101 -> +5, 100 -> +7
//
// The tables below are indexed by the bit pattern read MSB-first as in the
// standard's tables; the mapper assembles indices accordingly.
// Axis level tables are package-level so axisLevels never allocates on the
// demap hot path.
var (
	levels1 = []float64{-1, 1}
	levels2 = []float64{-3, -1, 3, 1} // index = b0<<1 | b1 (b0 first)
	// index = b0<<2 | b1<<1 | b2 (b0 transmitted first, per standard
	// table ordering b0 b1 b2 -> level).
	levels3 = []float64{-7, -5, -1, -3, 7, 5, 1, 3}
)

func axisLevels(bitsPerAxis int) []float64 {
	switch bitsPerAxis {
	case 1:
		return levels1
	case 2:
		return levels2
	case 3:
		return levels3
	default:
		return nil
	}
}

// Constellation returns every point of the normalized constellation, indexed
// by the integer formed from the symbol's bits (first transmitted bit is the
// most significant index bit, matching the standard's b0 b1 ... ordering).
func (s Scheme) Constellation() []complex128 {
	m := s.BitsPerSymbol()
	if m == 0 {
		return nil
	}
	n := 1 << m
	out := make([]complex128, n)
	for v := 0; v < n; v++ {
		bits := make([]byte, m)
		for i := 0; i < m; i++ {
			bits[i] = byte((v >> (m - 1 - i)) & 1)
		}
		pt, err := s.Map(bits)
		if err != nil {
			return nil
		}
		out[v] = pt
	}
	return out
}
