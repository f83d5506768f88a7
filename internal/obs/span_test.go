package obs

import (
	"sync"
	"testing"
	"time"
)

func TestSpanSetRecordsStages(t *testing.T) {
	r := NewRegistry()
	ss := NewSpanSet(r, "test_pipeline", "Test stage latency", []string{"tx", "rx"})
	if len(ss.stages) != 2 || ss.stages[1] != "rx" {
		t.Fatalf("stage bookkeeping: %q", ss.stages)
	}
	sp := ss.StartSpan(0)
	time.Sleep(time.Millisecond)
	if d := sp.End(); d < time.Millisecond {
		t.Errorf("span elapsed %v, slept 1ms", d)
	}
	ns := make([]int64, 2)
	ss.Drain(ns)
	if ns[0] < int64(time.Millisecond) || ns[1] != 0 {
		t.Errorf("drained ns = %v", ns)
	}
	// Drain zeroes the per-exchange window but not the histograms.
	ss.Drain(ns)
	if ns[0] != 0 {
		t.Errorf("second drain not zeroed: %v", ns)
	}
	snap := r.Snapshot()
	if snap["test_pipeline_tx_seconds_count"] != 1 {
		t.Errorf("histogram count = %v, want 1", snap["test_pipeline_tx_seconds_count"])
	}
	if snap["test_pipeline_rx_seconds_count"] != 0 {
		t.Errorf("untouched stage observed: %v", snap["test_pipeline_rx_seconds_count"])
	}
}

func TestSpanNesting(t *testing.T) {
	r := NewRegistry()
	ss := NewSpanSet(r, "nest", "Nesting test", []string{"outer", "inner"})
	outer := ss.StartSpan(0)
	inner := ss.StartSpan(1)
	time.Sleep(2 * time.Millisecond)
	inner.End()
	outer.End()
	ns := make([]int64, 2)
	ss.Drain(ns)
	if ns[0] < ns[1] {
		t.Errorf("outer span (%dns) should cover the nested inner span (%dns)", ns[0], ns[1])
	}
	if ns[1] < int64(2*time.Millisecond) {
		t.Errorf("inner span %dns, slept 2ms", ns[1])
	}
}

func TestZeroSpanIsInert(t *testing.T) {
	var sp Span
	if d := sp.End(); d != 0 {
		t.Errorf("zero span End = %v", d)
	}
}

// TestSpanSetConcurrent drives one shared SpanSet from many goroutines
// (the shared-registry shape: concurrent links timing the same stages);
// run under -race via make ci.
func TestSpanSetConcurrent(t *testing.T) {
	r := NewRegistry()
	ss := NewSpanSet(r, "conc", "Concurrency test", []string{"a", "b", "c"})
	const workers, perWorker = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				sp := ss.StartSpan((w + i) % 3)
				sp.End()
			}
		}(w)
	}
	wg.Wait()
	snap := r.Snapshot()
	total := snap["conc_a_seconds_count"] + snap["conc_b_seconds_count"] + snap["conc_c_seconds_count"]
	if total != workers*perWorker {
		t.Errorf("observations = %v, want %d", total, workers*perWorker)
	}
}

// TestSpanHotPathAllocs pins the allocation-free contract of
// StartSpan/End: the flight recorder rides the per-packet hot path.
func TestSpanHotPathAllocs(t *testing.T) {
	r := NewRegistry()
	ss := NewSpanSet(r, "alloc", "Alloc test", []string{"s"})
	ns := make([]int64, 1)
	allocs := testing.AllocsPerRun(1000, func() {
		sp := ss.StartSpan(0)
		sp.End()
		ss.Drain(ns)
	})
	if allocs != 0 {
		t.Errorf("span hot path allocates %.1f objects/op, want 0", allocs)
	}
}

func TestSpanSetPanicsOnBadStage(t *testing.T) {
	r := NewRegistry()
	ss := NewSpanSet(r, "bad", "Bad stage test", []string{"s"})
	defer func() {
		if recover() == nil {
			t.Error("out-of-range stage should panic")
		}
	}()
	ss.StartSpan(1)
}
