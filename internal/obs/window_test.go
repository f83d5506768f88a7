package obs

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestRateWindowCountsAndExpires(t *testing.T) {
	base := time.Unix(1000, 0)
	w := NewRateWindow(10*time.Second, 10) // 1s buckets

	for i := 0; i < 5; i++ {
		w.AddAt(base.Add(time.Duration(i)*time.Second), 2)
	}
	if got := w.CountAt(base.Add(4 * time.Second)); got != 10 {
		t.Fatalf("count inside window = %d, want 10", got)
	}
	if got := w.RateAt(base.Add(4 * time.Second)); got != 1.0 {
		t.Fatalf("rate = %v, want 1.0 (10 events / 10s window)", got)
	}

	// At base+12s the window spans buckets base+3s..base+12s, so only the
	// adds at base+3s and base+4s survive.
	if got := w.CountAt(base.Add(12 * time.Second)); got != 2*2 {
		t.Fatalf("count after partial expiry = %d, want 4", got)
	}
	// Far in the future everything expires.
	if got := w.CountAt(base.Add(time.Hour)); got != 0 {
		t.Fatalf("count after full expiry = %d, want 0", got)
	}
}

func TestRateWindowLateEventsLandInCurrentBucket(t *testing.T) {
	base := time.Unix(2000, 0)
	w := NewRateWindow(time.Second, 4)
	w.AddAt(base, 1)
	w.AddAt(base.Add(-time.Hour), 1) // clock went backwards: still counted
	if got := w.CountAt(base); got != 2 {
		t.Fatalf("count = %d, want 2", got)
	}
}

func TestRateWindowConcurrent(t *testing.T) {
	w := NewRateWindow(time.Second, 10)
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				w.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := w.CountAt(time.Now()); got != 4000 {
		t.Fatalf("count = %d, want 4000", got)
	}
}

func TestQuantileWindowNearestRank(t *testing.T) {
	w := NewQuantileWindow(100)
	if !math.IsNaN(w.Quantile(0.5)) {
		t.Fatal("empty window quantile should be NaN")
	}
	for i := 1; i <= 100; i++ {
		w.Observe(float64(i))
	}
	for _, tc := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 50}, {0.99, 99}, {1, 100},
	} {
		if got := w.Quantile(tc.q); got != tc.want {
			t.Errorf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if w.Count() != 100 {
		t.Fatalf("Count = %d", w.Count())
	}
}

func TestQuantileWindowSlides(t *testing.T) {
	w := NewQuantileWindow(4)
	for _, v := range []float64{1, 2, 3, 4, 100, 100, 100, 100} {
		w.Observe(v)
	}
	// The early small samples must have been evicted.
	if got := w.Quantile(0); got != 100 {
		t.Fatalf("min after slide = %v, want 100", got)
	}
	if w.Count() != 4 {
		t.Fatalf("Count = %d, want 4", w.Count())
	}
}

func TestQuantileWindowClampsQ(t *testing.T) {
	w := NewQuantileWindow(4)
	w.Observe(7)
	if got := w.Quantile(-1); got != 7 {
		t.Fatalf("Quantile(-1) = %v", got)
	}
	if got := w.Quantile(2); got != 7 {
		t.Fatalf("Quantile(2) = %v", got)
	}
}
