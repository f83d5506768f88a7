package cos_test

import (
	"math"
	"sync"
	"testing"

	"cos"
)

// sendWithBudgetedControl queries the link's current silence budget and
// sends data with as many control bits as fit (rounded down to the k=4
// interval alignment), mirroring how an adaptive sender would drive the API.
func sendWithBudgetedControl(t testing.TB, link *cos.Link, data, ctrl []byte) (*cos.Exchange, []byte) {
	t.Helper()
	maxBits, err := link.MaxControlBits(len(data))
	if err != nil {
		t.Fatalf("MaxControlBits: %v", err)
	}
	n := maxBits / 4 * 4
	if n > cap(ctrl) {
		n = cap(ctrl)
	}
	ctrl = ctrl[:n]
	for i := range ctrl {
		ctrl[i] = byte(i % 2)
	}
	ex, err := link.Send(data, ctrl)
	if err != nil {
		t.Fatalf("Send: %v", err)
	}
	return ex, ctrl
}

// TestLinkSendSteadyStateAllocs freezes the tentpole claim of the pipeline
// refactor: once the per-node scratch arenas are warm, Link.Send allocates
// (near) nothing per packet. The budget is deliberately above the measured
// value (~15 allocs/op, all in the Exchange result and its copied-out
// slices) so legitimate result-surface changes don't trip it, while a
// regression back toward the pre-refactor ~9000 allocs/op fails loudly.
func TestLinkSendSteadyStateAllocs(t *testing.T) {
	const allocBudget = 32

	link, err := cos.NewLink(cos.WithSNR(20), cos.WithSeed(6))
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 1024)
	for i := range data {
		data[i] = byte(i)
	}
	ctrl := make([]byte, 0, 64)

	// Warm up: let the feedback loop settle on a mode and the scratch
	// arenas grow to their steady-state sizes.
	for i := 0; i < 8; i++ {
		sendWithBudgetedControl(t, link, data, ctrl)
	}

	avg := testing.AllocsPerRun(50, func() {
		sendWithBudgetedControl(t, link, data, ctrl)
	})
	t.Logf("steady-state Link.Send: %.1f allocs/op (budget %d)", avg, allocBudget)
	if avg > allocBudget {
		t.Fatalf("steady-state Link.Send allocates %.1f/op, budget is %d", avg, allocBudget)
	}
}

// TestStageHistogramsReconcile: the cos_link_stage_*_seconds histograms
// and Exchange.StageNS come from one clock. Per stage, the histogram holds
// one observation for each exchange that ran the stage, and its sum is
// those exchanges' StageNS in seconds. Data-only exchanges skip detection
// and control decoding, so the stages' counts differ.
func TestStageHistogramsReconcile(t *testing.T) {
	reg := cos.NewMetricsRegistry()
	link, err := cos.NewLink(cos.WithSNR(18), cos.WithSeed(3), cos.WithMetricsRegistry(reg))
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 256)
	ctrl := make([]byte, 0, 16)
	var ran [cos.StageCount]int
	var ns [cos.StageCount]int64
	for i := 0; i < 20; i++ {
		var ex *cos.Exchange
		if i%3 == 0 {
			if ex, err = link.Send(data, nil); err != nil {
				t.Fatal(err)
			}
		} else {
			ex, _ = sendWithBudgetedControl(t, link, data, ctrl)
		}
		for s, v := range ex.StageNS {
			if v > 0 {
				ran[s]++
				ns[s] += v
			}
		}
	}
	if ran[cos.StageDetect] == 0 || ran[cos.StageDetect] == ran[cos.StageTxEncode] {
		t.Fatalf("detection ran on %d of %d exchanges; want a mix of control and data-only", ran[cos.StageDetect], ran[cos.StageTxEncode])
	}
	// The histogram sums float64 seconds one observation at a time; 20
	// adds of values rounded from whole nanoseconds stay within a few
	// dozen ulps of the exact total, far inside 1e-12 relative.
	const relTol = 1e-12
	snap := reg.Snapshot()
	for s := cos.Stage(0); s < cos.StageCount; s++ {
		name := "cos_link_stage_" + s.String() + "_seconds"
		if got := snap[name+"_count"]; got != float64(ran[s]) {
			t.Errorf("%s_count = %v, want %d exchanges with StageNS > 0", name, got, ran[s])
		}
		want := float64(ns[s]) / 1e9
		if got := snap[name+"_sum"]; math.Abs(got-want) > relTol*want {
			t.Errorf("%s_sum = %.15g s, want ΣStageNS = %.15g s", name, got, want)
		}
	}
}

// TestPipelineNodesRace exercises the node wiring from concurrent
// goroutines — one independent link per goroutine — so `go test -race` can
// catch unsynchronized access to the package-level shared state the nodes
// lean on (the interleaver cache, the precomputed preamble, the metrics
// registry). Each link itself stays single-goroutine, per the concurrency
// contract.
func TestPipelineNodesRace(t *testing.T) {
	const workers = 4
	data := make([]byte, 256)
	for i := range data {
		data[i] = byte(i)
	}

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			link, err := cos.NewLink(cos.WithSNR(20), cos.WithSeed(seed))
			if err != nil {
				errs <- err
				return
			}
			ctrl := make([]byte, 0, 64)
			for p := 0; p < 3; p++ {
				maxBits, err := link.MaxControlBits(len(data))
				if err != nil {
					errs <- err
					return
				}
				n := maxBits / 4 * 4
				if n > cap(ctrl) {
					n = cap(ctrl)
				}
				ctrl = ctrl[:n]
				for i := range ctrl {
					ctrl[i] = byte(i % 2)
				}
				if _, err := link.Send(data, ctrl); err != nil {
					errs <- err
					return
				}
			}
		}(int64(w + 1))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
