package dsp

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range xs {
		sum += v
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance of xs, or 0 for fewer than two
// samples.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var sum float64
	for _, v := range xs {
		d := v - m
		sum += d * d
	}
	return sum / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// CDFPoint is one (value, cumulative probability) pair of an empirical CDF.
type CDFPoint struct {
	Value float64
	Prob  float64
}

// EmpiricalCDF builds the empirical cumulative distribution function of xs.
// The result is sorted by value; Prob at each point is the fraction of
// samples less than or equal to that value.
func EmpiricalCDF(xs []float64) []CDFPoint {
	if len(xs) == 0 {
		return nil
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	out := make([]CDFPoint, len(sorted))
	n := float64(len(sorted))
	for i, v := range sorted {
		out[i] = CDFPoint{Value: v, Prob: float64(i+1) / n}
	}
	return out
}
