package phy

import (
	"fmt"
	"math"
	"sort"
)

// quantizeClip is the clipping point of QuantizeMetrics, in multiples of
// the median magnitude of the non-erased metrics.
const quantizeClip = 4

// QuantizeMetrics models a hardware receiver's fixed-point LLR path: it
// clips metrics, in place, at 4x the median magnitude of the non-erased
// metrics and uniformly quantizes them to 2^bits-1 signed levels (zero
// stays exactly zero, so erasures survive quantization). bits must be in
// [2,16]. mags is working storage for the magnitudes; it is grown (reusing
// its capacity) and returned for the next call.
//
// The median-based scale matters: post-equalization LLRs span orders of
// magnitude across subcarriers (confidence scales with subcarrier SNR), so
// an RMS scale would let the strongest subcarriers crush the weakest to
// zero. Saturating the strong ones instead is harmless — they are already
// certain. Real Viterbi decoders run on 3-6 bit soft inputs; the
// quantization ablation measures how little that costs the CoS pipeline.
func QuantizeMetrics(metrics []float64, bits int, mags []float64) ([]float64, error) {
	if bits < 2 || bits > 16 {
		return mags, fmt.Errorf("phy: LLR width %d outside [2,16]", bits)
	}
	mags = mags[:0]
	for i, m := range metrics {
		if m != 0 {
			mags = append(mags, math.Abs(m))
		} else {
			metrics[i] = 0 // erasure: exactly zero in any width
		}
	}
	if len(mags) == 0 {
		return mags, nil // all erased
	}
	sort.Float64s(mags)
	median := mags[len(mags)/2]
	if median == 0 {
		median = mags[len(mags)-1]
	}
	maxMag := quantizeClip * median
	levels := float64(int(1)<<(bits-1)) - 1 // e.g. 7 for 4-bit signed
	step := maxMag / levels
	for i, m := range metrics {
		if m == 0 {
			continue
		}
		q := math.Round(m / step)
		if q > levels {
			q = levels
		}
		if q < -levels {
			q = -levels
		}
		metrics[i] = q * step
	}
	return mags, nil
}
