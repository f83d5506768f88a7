package dsp

import (
	"math"
	"math/cmplx"
)

// Power returns the average power (mean squared magnitude) of x.
// It returns 0 for an empty slice.
func Power(x []complex128) float64 {
	if len(x) == 0 {
		return 0
	}
	var sum float64
	for _, v := range x {
		sum += real(v)*real(v) + imag(v)*imag(v)
	}
	return sum / float64(len(x))
}

// Energy returns the total energy (sum of squared magnitudes) of x.
func Energy(x []complex128) float64 {
	var sum float64
	for _, v := range x {
		sum += real(v)*real(v) + imag(v)*imag(v)
	}
	return sum
}

// MagSq returns the squared magnitude of v. It is cheaper than
// cmplx.Abs(v)*cmplx.Abs(v) and never produces intermediate square roots.
func MagSq(v complex128) float64 {
	return real(v)*real(v) + imag(v)*imag(v)
}

// Abs returns the magnitude of v.
func Abs(v complex128) float64 {
	return cmplx.Abs(v)
}

// DB converts a linear power ratio to decibels. Non-positive inputs map to
// -Inf, mirroring the mathematical limit.
func DB(linear float64) float64 {
	if linear <= 0 {
		return math.Inf(-1)
	}
	return 10 * math.Log10(linear)
}

// Linear converts a decibel power ratio to linear scale.
func Linear(db float64) float64 {
	return math.Pow(10, db/10)
}
