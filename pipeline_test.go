package cos_test

import (
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
