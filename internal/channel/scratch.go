package channel

import (
	"math"
	"math/rand"

	"cos/internal/ofdm"
)

// The channel operators. TapsInto / ConvolveInto / ApplyTo write into
// caller-owned buffers, growing them only when capacity is insufficient (a
// nil buffer allocates); FrequencyResponseFrom turns an already-computed tap
// vector into H[k] without re-evaluating the Doppler processes. Tap
// evaluation draws no randomness — only AddAWGN consumes the rng — so
// computing taps once and reusing them for both the frequency response and
// the convolution is bit-identical to calling FrequencyResponse and Apply
// separately.

// TapsInto writes the complex tap gains at time t (seconds) into dst.
func (c *TDL) TapsInto(dst []complex128, t float64) []complex128 {
	if cap(dst) < len(c.procs) {
		dst = make([]complex128, len(c.procs))
	}
	dst = dst[:len(c.procs)]
	for i := range c.procs {
		dst[i] = c.procs[i].at(t)
	}
	return dst
}

// FrequencyResponseFrom computes H[k] for every subcarrier bin from an
// already-evaluated tap vector (as returned by TapsInto).
func FrequencyResponseFrom(taps []complex128) [ofdm.NumSubcarriers]complex128 {
	var h [ofdm.NumSubcarriers]complex128
	for k := 0; k < ofdm.NumSubcarriers; k++ {
		var sum complex128
		for m, g := range taps {
			angle := -2 * math.Pi * float64(k) * float64(m) / ofdm.NumSubcarriers
			sum += g * complex(math.Cos(angle), math.Sin(angle))
		}
		h[k] = sum
	}
	return h
}

// ConvolveInto applies tap gains to samples by linear convolution into dst,
// which must not alias samples. The output is truncated to len(samples)
// (the preamble leads every packet, so edge transients never touch payload
// symbols).
func ConvolveInto(dst, samples, taps []complex128) []complex128 {
	if cap(dst) < len(samples) {
		dst = make([]complex128, len(samples))
	}
	dst = dst[:len(samples)]
	for n := range samples {
		var sum complex128
		for m, g := range taps {
			if n-m < 0 {
				break
			}
			sum += g * samples[n-m]
		}
		dst[n] = sum
	}
	return dst
}

// ApplyTo runs samples through precomputed taps into dst and adds noise of
// the given variance: convolution followed by AWGN.
func ApplyTo(dst, samples, taps []complex128, noiseVar float64, rng *rand.Rand) []complex128 {
	dst = ConvolveInto(dst, samples, taps)
	AddAWGN(dst, noiseVar, rng)
	return dst
}
