package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: with fewer, the "tail" is a handful of outliers, not a
// distribution property.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of xs (0 < p <= 100):
// the value at 1-based rank ceil(p/100 * n) of the sorted samples. It
// refuses (ok false) when fewer than minBeyond samples rank above it.
func percentile(xs []float64, p float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 || p <= 0 || p > 100 {
		return 0, false
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], true
}

// median is the plain middle value (mean of the two middle values for even
// n). Unlike percentile it never refuses: it summarizes repetitions
// (set-ups, figures, reps), not a latency distribution.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the first and third quartiles by the "exclusive"
// method, step for step as Python's statistics.quantiles(xs, n=4) computes
// them, so the spread -reps prints matches one computed over the JSON
// output. It needs at least two samples.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		return math.NaN(), math.NaN()
	}
	const n = 4
	m := ld + 1
	at := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return at(1), at(3)
}

// lowerQuartile is the first quartile of xs (NaN for fewer than two
// samples). It is the latency the end-to-end results carry: on a shared
// host an operation's latency is bimodal, fast or slowed by neighbours'
// cache contention, and the median jumps between the two modes from run to
// run while the lower quartile stays on the fast one.
func lowerQuartile(xs []float64) float64 {
	q1, _ := quartiles(xs)
	return q1
}

// upperQuartile is the third quartile of xs (NaN for fewer than two
// samples). It is the throughput the end-to-end results carry, taken over
// slices of the run, for the same reason the latency is a lower quartile.
func upperQuartile(xs []float64) float64 {
	_, q3 := quartiles(xs)
	return q3
}

// throughputSlices is how many equal slices a closed-loop phase is cut
// into for its throughput.
const throughputSlices = 10

// sliceRates cuts [start, end) into throughputSlices equal slices and
// returns the operations completed in each, per second.
func sliceRates(done []time.Time, start, end time.Time) []float64 {
	w := end.Sub(start) / throughputSlices
	rates := make([]float64, throughputSlices)
	if w <= 0 {
		return rates
	}
	for _, t := range done {
		if i := int(t.Sub(start) / w); i >= 0 && i < throughputSlices {
			rates[i]++
		}
	}
	for i := range rates {
		rates[i] /= w.Seconds()
	}
	return rates
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(median(xs))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// tail reports a percentile for the human-readable summary, or why it was
// refused.
func tail(xs []float64, p float64) string {
	v, ok := percentile(xs, p)
	if !ok {
		return fmt.Sprintf("refused (n=%d: fewer than %d samples beyond p%g)", len(xs), minBeyond, p)
	}
	return fmt.Sprintf("%.4f (n=%d)", v, len(xs))
}
