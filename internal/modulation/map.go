package modulation

import (
	"fmt"
	"math"
)

// Map converts one symbol's worth of coded bits (len = BitsPerSymbol) into a
// normalized constellation point. Per 802.11a, the first half of the bits
// selects the I axis and the second half the Q axis; BPSK uses only I.
func (s Scheme) Map(symbolBits []byte) (complex128, error) {
	m := s.BitsPerSymbol()
	if m == 0 {
		return 0, fmt.Errorf("modulation: invalid scheme %d", int(s))
	}
	if len(symbolBits) != m {
		return 0, fmt.Errorf("modulation: %v needs %d bits per symbol, got %d", s, m, len(symbolBits))
	}
	for i, b := range symbolBits {
		if b > 1 {
			return 0, fmt.Errorf("modulation: element %d = %d is not a bit", i, b)
		}
	}
	if s == BPSK {
		return complex(float64(2*int(symbolBits[0])-1), 0), nil
	}
	half := m / 2
	levels := axisLevels(half)
	iIdx, qIdx := 0, 0
	for k := 0; k < half; k++ {
		iIdx = iIdx<<1 | int(symbolBits[k])
		qIdx = qIdx<<1 | int(symbolBits[half+k])
	}
	norm := s.Norm()
	return complex(levels[iIdx]*norm, levels[qIdx]*norm), nil
}

// MapBitsInto modulates a bit stream (length a multiple of BitsPerSymbol)
// into constellation points in dst, which is grown (reusing its capacity)
// to len(in)/BitsPerSymbol points; a nil dst allocates.
func (s Scheme) MapBitsInto(dst []complex128, in []byte) ([]complex128, error) {
	m := s.BitsPerSymbol()
	if m == 0 {
		return nil, fmt.Errorf("modulation: invalid scheme %d", int(s))
	}
	if len(in)%m != 0 {
		return nil, fmt.Errorf("modulation: bit count %d is not a multiple of %d", len(in), m)
	}
	n := len(in) / m
	if cap(dst) < n {
		dst = make([]complex128, n)
	}
	dst = dst[:n]
	for i := 0; i < n; i++ {
		pt, err := s.Map(in[i*m : (i+1)*m])
		if err != nil {
			return nil, err
		}
		dst[i] = pt
	}
	return dst, nil
}

// hardAxis returns the axis bits (MSB-first) of the level nearest to x,
// where x is in unnormalized integer units.
func hardAxis(bitsPerAxis int, x float64) []byte {
	levels := axisLevels(bitsPerAxis)
	bestIdx, bestDist := 0, math.Inf(1)
	for idx, lv := range levels {
		d := (x - lv) * (x - lv)
		if d < bestDist {
			bestDist = d
			bestIdx = idx
		}
	}
	out := make([]byte, bitsPerAxis)
	for i := 0; i < bitsPerAxis; i++ {
		out[i] = byte((bestIdx >> (bitsPerAxis - 1 - i)) & 1)
	}
	return out
}

// HardDemap returns the bits of the constellation point nearest to y.
func (s Scheme) HardDemap(y complex128) ([]byte, error) {
	m := s.BitsPerSymbol()
	if m == 0 {
		return nil, fmt.Errorf("modulation: invalid scheme %d", int(s))
	}
	if s == BPSK {
		if real(y) >= 0 {
			return []byte{1}, nil
		}
		return []byte{0}, nil
	}
	norm := s.Norm()
	half := m / 2
	out := make([]byte, 0, m)
	out = append(out, hardAxis(half, real(y)/norm)...)
	out = append(out, hardAxis(half, imag(y)/norm)...)
	return out, nil
}

// SoftDemap computes max-log bit metrics for one received point (Eq. (8)):
//
//	lambda_i = [ min_{x in chi_0^i} |y-x|^2 - min_{x in chi_1^i} |y-x|^2 ] / N0
//
// Positive metrics favor bit 1. noiseVar is the complex noise variance N0;
// values below a small floor are clamped to keep metrics finite. The Gray
// mapping is I/Q-separable, so each axis is searched independently.
func (s Scheme) SoftDemap(y complex128, noiseVar float64) ([]float64, error) {
	m := s.BitsPerSymbol()
	if m == 0 {
		return nil, fmt.Errorf("modulation: invalid scheme %d", int(s))
	}
	out := make([]float64, m)
	if err := s.SoftDemapInto(out, y, noiseVar); err != nil {
		return nil, err
	}
	return out, nil
}

// SoftDemapInto is SoftDemap writing the BitsPerSymbol metrics into dst,
// whose length must be exactly BitsPerSymbol. It is the allocation-free form
// the receiver uses to demap straight into a symbol's metric segment.
func (s Scheme) SoftDemapInto(dst []float64, y complex128, noiseVar float64) error {
	m := s.BitsPerSymbol()
	if m == 0 {
		return fmt.Errorf("modulation: invalid scheme %d", int(s))
	}
	if len(dst) != m {
		return fmt.Errorf("modulation: %v demaps %d metrics per symbol, destination has %d", s, m, len(dst))
	}
	const minNoiseVar = 1e-9
	if noiseVar < minNoiseVar {
		noiseVar = minNoiseVar
	}
	if s == BPSK {
		// chi_0 = {-1}, chi_1 = {+1}: LLR = ((re+1)^2 - (re-1)^2)/N0.
		dst[0] = 4 * real(y) / noiseVar
		return nil
	}
	half := m / 2
	softAxis(dst[:half], half, real(y), s.Norm(), noiseVar)
	softAxis(dst[half:], half, imag(y), s.Norm(), noiseVar)
	return nil
}

// softAxis computes the per-bit max-log metrics of one axis into out.
func softAxis(out []float64, bitsPerAxis int, y, norm, noiseVar float64) {
	levels := axisLevels(bitsPerAxis)
	for bit := 0; bit < bitsPerAxis; bit++ {
		shift := bitsPerAxis - 1 - bit // bit 0 is the MSB of the axis index
		min0, min1 := math.Inf(1), math.Inf(1)
		for idx, lv := range levels {
			d := y - lv*norm
			d *= d
			if (idx>>shift)&1 == 0 {
				if d < min0 {
					min0 = d
				}
			} else if d < min1 {
				min1 = d
			}
		}
		out[bit] = (min0 - min1) / noiseVar
	}
}
