package modulation

import (
	"math"
	"testing"
)

// hardDemapRef is the bit-slice hard demapper HardIndex replaced: a
// per-axis argmin over the Gray level table, first level wins a tie.
func hardDemapRef(s Scheme, y complex128) []byte {
	m := s.BitsPerSymbol()
	if s == BPSK {
		if real(y) >= 0 {
			return []byte{1}
		}
		return []byte{0}
	}
	axis := func(bitsPerAxis int, x float64) []byte {
		bestIdx, bestDist := 0, math.Inf(1)
		for idx, lv := range axisLevels(bitsPerAxis) {
			d := (x - lv) * (x - lv)
			if d < bestDist {
				bestDist = d
				bestIdx = idx
			}
		}
		out := make([]byte, bitsPerAxis)
		for i := range out {
			out[i] = byte((bestIdx >> (bitsPerAxis - 1 - i)) & 1)
		}
		return out
	}
	half := m / 2
	return append(axis(half, real(y)/s.Norm()), axis(half, imag(y)/s.Norm())...)
}

// bitsIndex reads a symbol's bits MSB-first, the Constellation order.
func bitsIndex(b []byte) int {
	idx := 0
	for _, v := range b {
		idx = idx<<1 | int(v)
	}
	return idx
}

// hardIndexProbes returns the observations the HardIndex test decides for
// s: every constellation point, every exact decision boundary on each axis
// (paired with every level on the other axis, and with each other), the
// neighbours one ulp either side of each boundary, 0, and NaN/Inf
// coordinates.
func hardIndexProbes(s Scheme) []complex128 {
	norm := s.Norm()
	var axis []float64 // unnormalized coordinates along one axis
	levels := axisLevels(s.BitsPerSymbol() / 2)
	if s == BPSK {
		levels = levels1
	}
	for _, a := range levels {
		for _, b := range levels {
			if b == a+2 { // adjacent levels: their midpoint is a boundary
				mid := (a + b) / 2
				axis = append(axis, mid, math.Nextafter(mid, math.Inf(-1)), math.Nextafter(mid, math.Inf(1)))
			}
		}
		axis = append(axis, a)
	}
	axis = append(axis, 0, math.NaN(), math.Inf(1), math.Inf(-1))
	var out []complex128
	for _, i := range axis {
		for _, q := range axis {
			out = append(out, complex(i*norm, q*norm))
		}
	}
	return append(out, s.Constellation()...)
}

// TestHardIndexMatchesHardDemap: HardIndex decides every point, exact
// boundary, 0 and NaN exactly as the bit-slice demapper did, and HardDemap
// still returns those bits.
func TestHardIndexMatchesHardDemap(t *testing.T) {
	for _, s := range allSchemes {
		for _, y := range hardIndexProbes(s) {
			want := hardDemapRef(s, y)
			got, err := s.HardIndex(y)
			if err != nil {
				t.Fatal(err)
			}
			if got != bitsIndex(want) {
				t.Errorf("%v: HardIndex(%v) = %d, want %d (bits %v)", s, y, got, bitsIndex(want), want)
			}
			bits, err := s.HardDemap(y)
			if err != nil {
				t.Fatal(err)
			}
			if bitsIndex(bits) != bitsIndex(want) || len(bits) != len(want) {
				t.Errorf("%v: HardDemap(%v) = %v, want %v", s, y, bits, want)
			}
		}
	}
	// Exact integer boundaries, where both neighbours are at distance 1:
	// the level listed first in the Gray table wins.
	for half := 1; half <= 3; half++ {
		levels := axisLevels(half)
		for x := -float64(len(levels)) + 2; x < float64(len(levels))-1; x += 2 {
			first := -1
			for idx, lv := range levels {
				if math.Abs(x-lv) == 1 {
					first = idx
					break
				}
			}
			if got := hardAxisIndex(half, x); got != first {
				t.Errorf("%d bits/axis: tie at %v decided index %d, want %d", half, x, got, first)
			}
		}
	}
	if _, err := Scheme(0).HardIndex(0); err == nil {
		t.Error("invalid scheme should error")
	}
}
