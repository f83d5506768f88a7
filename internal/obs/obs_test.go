package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "a counter")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if again := r.Counter("test_total", "a counter"); again != c {
		t.Error("re-registration returned a different handle")
	}

	g := r.Gauge("test_gauge", "a gauge")
	g.Set(2.5)
	g.Add(-1)
	if g.Value() != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", g.Value())
	}

	snap := r.Snapshot()
	if snap["test_total"] != 5 || snap["test_gauge"] != 1.5 {
		t.Errorf("snapshot: %v", snap)
	}
}

func TestRegisterKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dual", "")
	defer func() {
		if recover() == nil {
			t.Error("gauge under a counter name should panic")
		}
	}()
	r.Gauge("dual", "")
}

func TestInvalidNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad name should panic")
		}
	}()
	NewRegistry().Counter("bad name", "")
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	bounds := make([]float64, 100)
	for i := range bounds {
		bounds[i] = float64(i + 1)
	}
	h := r.Histogram("lat_seconds", "latency", bounds)
	if h.Quantile(0.5) != 0 {
		t.Error("empty histogram quantile should be 0")
	}
	for v := 1; v <= 100; v++ {
		h.Observe(float64(v))
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if got := h.Sum(); math.Abs(got-5050) > 1e-9 {
		t.Errorf("sum = %v, want 5050", got)
	}
	for _, tc := range []struct{ q, want, tol float64 }{
		{0.50, 50, 1},
		{0.95, 95, 1},
		{0.99, 99, 1},
	} {
		if got := h.Quantile(tc.q); math.Abs(got-tc.want) > tc.tol {
			t.Errorf("q%v = %v, want ~%v", tc.q, got, tc.want)
		}
	}
	// Overflow clamps to the top finite bound.
	h.Observe(1e9)
	if got := h.Quantile(1); got != 100 {
		t.Errorf("q1 with overflow = %v, want 100", got)
	}

	snap := r.Snapshot()
	for _, k := range []string{"lat_seconds_count", "lat_seconds_sum", "lat_seconds_p50", "lat_seconds_p95", "lat_seconds_p99"} {
		if _, ok := snap[k]; !ok {
			t.Errorf("snapshot missing %s: %v", k, snap)
		}
	}
}

func TestHistogramObserveSince(t *testing.T) {
	h := NewRegistry().Histogram("t_seconds", "", nil)
	h.ObserveSince(time.Now().Add(-time.Millisecond))
	if h.Count() != 1 || h.Sum() <= 0 {
		t.Errorf("count=%d sum=%v", h.Count(), h.Sum())
	}
}

func TestCounterFamily(t *testing.T) {
	r := NewRegistry()
	f := r.CounterFamily("pkts_total", "packets by rate", "rate_mbps")
	f.With("6").Add(2)
	f.With("54").Inc()
	if f.With("6").Value() != 2 {
		t.Errorf("child = %d", f.With("6").Value())
	}
	snap := r.Snapshot()
	if snap[`pkts_total{rate_mbps="6"}`] != 2 || snap[`pkts_total{rate_mbps="54"}`] != 1 {
		t.Errorf("snapshot: %v", snap)
	}
}

func TestWriteProm(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "the\ncount").Add(3)
	r.Gauge("g", "").Set(1.25)
	h := r.Histogram("h_seconds", "", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(5)
	r.CounterFamily("f_total", "", "kind").With(`a"b`).Inc()

	var b strings.Builder
	r.WriteProm(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE c_total counter",
		"c_total 3",
		`# HELP c_total the\ncount`,
		"# TYPE g gauge",
		"g 1.25",
		"# TYPE h_seconds histogram",
		`h_seconds_bucket{le="0.1"} 1`,
		`h_seconds_bucket{le="+Inf"} 2`,
		"h_seconds_count 2",
		`f_total{kind="a\"b"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prom output missing %q:\n%s", want, out)
		}
	}
}

// TestConcurrentUpdates exercises every metric kind from many goroutines;
// run with -race to verify the registry is data-race free.
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("cc_total", "")
	g := r.Gauge("cg", "")
	h := r.Histogram("ch_seconds", "", nil)
	f := r.CounterFamily("cf_total", "", "w")

	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i%10) * 1e-3)
				f.With([]string{"a", "b"}[w%2]).Inc()
				// Concurrent registration of the same names must be safe.
				r.Counter("cc_total", "").Value()
			}
		}(w)
	}
	// Concurrent readers.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				r.Snapshot()
				var b strings.Builder
				r.WriteProm(&b)
				_ = r.StatsLine()
			}
		}()
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Errorf("counter = %d, want %d", c.Value(), workers*per)
	}
	if g.Value() != workers*per {
		t.Errorf("gauge = %v, want %d", g.Value(), workers*per)
	}
	if h.Count() != workers*per {
		t.Errorf("histogram count = %d, want %d", h.Count(), workers*per)
	}
	if f.With("a").Value()+f.With("b").Value() != workers*per {
		t.Errorf("family sum = %d", f.With("a").Value()+f.With("b").Value())
	}
}

func TestStatsLine(t *testing.T) {
	r := NewRegistry()
	if r.StatsLine() != "" {
		t.Errorf("empty registry line = %q", r.StatsLine())
	}
	r.Counter("b_total", "").Add(2)
	r.Counter("a_total", "").Inc()
	r.Counter("zero_total", "") // stays silent
	line := r.StatsLine()
	if line != "a_total=1 b_total=2" {
		t.Errorf("stats line = %q", line)
	}
}

func TestStartStatsLogger(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "").Inc()
	var mu sync.Mutex
	var b strings.Builder
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return b.Write(p)
	})
	stop := StartStatsLogger(w, r, time.Millisecond)
	time.Sleep(10 * time.Millisecond)
	stop()
	stop() // idempotent
	mu.Lock()
	out := b.String()
	mu.Unlock()
	if !strings.Contains(out, "x_total=1") {
		t.Errorf("logger output %q missing stats", out)
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

func TestDefaultRegistryAndSnapshot(t *testing.T) {
	c := Default().Counter("obs_test_default_total", "")
	c.Inc()
	if Default().Snapshot()["obs_test_default_total"] < 1 {
		t.Error("Snapshot does not see the default registry")
	}
}
