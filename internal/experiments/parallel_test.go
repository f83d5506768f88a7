package experiments

import (
	"context"
	"errors"
	"testing"
	"time"
)

// assertIdenticalAcrossWorkers runs one experiment at several worker counts
// and requires byte-identical CSV output — the engine's core determinism
// contract (per-task RNGs derived as seed^index, results reassembled in
// index order).
func assertIdenticalAcrossWorkers(t *testing.T, id string, opts RunOptions) {
	t.Helper()
	ctx := context.Background()
	opts.Workers = 1
	serial, err := Run(ctx, id, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := serial.String()
	for _, w := range []int{2, 4, 7} {
		opts.Workers = w
		par, err := Run(ctx, id, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if got := par.String(); got != want {
			t.Errorf("workers=%d output differs from serial\nserial:\n%.400s\nparallel:\n%.400s", w, want, got)
		}
	}
}

func TestParallelMatchesSerialFig3(t *testing.T) {
	assertIdenticalAcrossWorkers(t, "fig3", RunOptions{Scale: 0.1})
}

func TestParallelMatchesSerialFig10c(t *testing.T) {
	assertIdenticalAcrossWorkers(t, "fig10c", RunOptions{Scale: 0.01})
}

func TestParallelMatchesSerialFig2(t *testing.T) {
	assertIdenticalAcrossWorkers(t, "fig2", RunOptions{Scale: 0.5})
}

// The prelude figures share one sync.OnceValues calibration across their
// point-tasks, which concurrent workers reach at once.
func TestParallelMatchesSerialPrelude(t *testing.T) {
	for _, id := range []string{"fig10b", "ablation-threshold", "ablation-placement"} {
		t.Run(id, func(t *testing.T) {
			assertIdenticalAcrossWorkers(t, id, RunOptions{Scale: 0.01})
		})
	}
}

// Cancelling mid-sweep must surface ctx.Err() promptly from every runner,
// serial or parallel.
func TestRunnerCancellation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		for _, id := range []string{"fig3", "fig10c", "fig9", "ablation-threshold"} {
			ctx, cancel := context.WithCancel(context.Background())
			cancel() // cancelled before the first task: nothing should run
			done := make(chan error, 1)
			go func() {
				_, err := Run(ctx, id, RunOptions{Scale: 1, Workers: workers})
				done <- err
			}()
			select {
			case err := <-done:
				if !errors.Is(err, context.Canceled) {
					t.Errorf("%s workers=%d: err = %v, want context.Canceled", id, workers, err)
				}
			case <-time.After(30 * time.Second):
				t.Fatalf("%s workers=%d: cancellation did not return promptly", id, workers)
			}
		}
	}
}

// Cancelling while tasks are in flight (not before) must also stop the run
// early; the per-packet ctx checks inside the task bodies make this prompt
// even at publication scale.
func TestRunnerCancellationMidFlight(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := Run(ctx, "fig10c", RunOptions{Scale: 1, Workers: 4})
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("mid-flight cancellation did not return promptly")
	}
}
