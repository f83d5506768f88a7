package obs

import (
	"math"
	"sort"
	"sync"
	"time"
)

// This file holds the rolling-window statistics behind the operations
// plane's periodic summary frames: RateWindow (events per second over a
// sliding wall-clock window) and QuantileWindow (streaming quantiles over
// the last N samples). Unlike the registry's counters and histograms —
// which aggregate since process start — these answer "what is happening
// right now", which is what an operator console needs.
//
// Both types expose *At variants taking an explicit time so tests and
// fixtures are deterministic; the convenience methods use time.Now.

// RateWindow counts events over a sliding window using fixed-width time
// buckets (a ring, so memory is bounded regardless of event rate). The
// estimate is exact at bucket granularity: events older than the window by
// up to one bucket width may still be counted.
type RateWindow struct {
	mu       sync.Mutex
	bucketNS int64
	counts   []uint64
	head     int64 // absolute bucket index currently accumulating
	total    uint64
}

// NewRateWindow returns a window of the given span split into buckets
// (buckets <= 0 selects 20). Span must be positive.
func NewRateWindow(span time.Duration, buckets int) *RateWindow {
	if span <= 0 {
		panic("obs: RateWindow span must be positive")
	}
	if buckets <= 0 {
		buckets = 20
	}
	bucketNS := span.Nanoseconds() / int64(buckets)
	if bucketNS < 1 {
		bucketNS = 1
	}
	return &RateWindow{bucketNS: bucketNS, counts: make([]uint64, buckets)}
}

// Add records n events now.
func (w *RateWindow) Add(n int) { w.AddAt(time.Now(), n) }

// AddAt records n events at time t. Times must not move backwards by more
// than the window span; late events land in the current bucket.
func (w *RateWindow) AddAt(t time.Time, n int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.advance(t)
	w.counts[w.head%int64(len(w.counts))] += uint64(n)
	w.total += uint64(n)
}

// CountAt returns the events recorded within the window ending at t.
func (w *RateWindow) CountAt(t time.Time) uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.advance(t)
	return w.total
}

// RateAt returns events per second over the window ending at t.
func (w *RateWindow) RateAt(t time.Time) float64 {
	span := float64(w.bucketNS*int64(len(w.counts))) / 1e9
	return float64(w.CountAt(t)) / span
}

// advance expires buckets older than the window. Called locked.
func (w *RateWindow) advance(t time.Time) {
	idx := t.UnixNano() / w.bucketNS
	if idx <= w.head {
		return
	}
	steps := idx - w.head
	if steps > int64(len(w.counts)) {
		steps = int64(len(w.counts))
	}
	for i := int64(1); i <= steps; i++ {
		slot := (w.head + i) % int64(len(w.counts))
		w.total -= w.counts[slot]
		w.counts[slot] = 0
	}
	w.head = idx
}

// QuantileWindow estimates quantiles over the most recent n observations
// (a sliding sample window, not a decaying sketch: every one of the last n
// values contributes exactly once). Observe is O(1); Quantile copies and
// sorts the window, which at the summary-frame cadence (about once a
// second over a few hundred samples) is far cheaper than maintaining an
// ordered structure on every observation.
type QuantileWindow struct {
	mu      sync.Mutex
	samples []float64
	n       int // filled
	next    int // ring cursor
	scratch []float64
}

// NewQuantileWindow returns a window over the last n observations (n <= 0
// selects 512).
func NewQuantileWindow(n int) *QuantileWindow {
	if n <= 0 {
		n = 512
	}
	return &QuantileWindow{samples: make([]float64, n), scratch: make([]float64, n)}
}

// Observe records one value, evicting the oldest once the window is full.
func (w *QuantileWindow) Observe(v float64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.samples[w.next] = v
	w.next = (w.next + 1) % len(w.samples)
	if w.n < len(w.samples) {
		w.n++
	}
}

// Count returns how many observations the window currently holds.
func (w *QuantileWindow) Count() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.n
}

// Quantile returns the q-quantile (0 <= q <= 1, nearest-rank) of the
// windowed samples, or NaN with no observations.
func (w *QuantileWindow) Quantile(q float64) float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.n == 0 {
		return math.NaN()
	}
	s := w.scratch[:w.n]
	copy(s, w.samples[:w.n])
	sort.Float64s(s)
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	i := int(math.Ceil(q*float64(w.n))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}
