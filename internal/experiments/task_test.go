package experiments

import (
	"context"
	"encoding/json"
	"testing"

	"cos/internal/pool"
)

// replayExecutor stands in for a remote fleet: it computes each record
// with its own TaskSet instance and the spec-derived RNG, exactly as a
// cos-serve backend running a figure_task job would.
type replayExecutor struct {
	t     *testing.T
	calls int
}

func (e *replayExecutor) ExecTasks(ctx context.Context, id string, opts RunOptions, n int) ([]json.RawMessage, error) {
	e.calls++
	recs := make([]json.RawMessage, n)
	for i := 0; i < n; i++ {
		// A fresh TaskSet per task mirrors remote execution: every job
		// rebuilds its world from the spec alone.
		ts, ok := Tasks(id, opts)
		if !ok {
			e.t.Fatalf("figure %q lost its decomposition mid-run", id)
		}
		rec, err := ts.RunTask(ctx, i, pool.TaskRNG(opts.Seed, i))
		if err != nil {
			return nil, err
		}
		recs[i] = rec
	}
	return recs, nil
}

// TestExecutorPathMatchesLocal pins the seam the fleet plugs into: every
// figure renders byte-identical CSV whether its records come from the
// in-process pool or from an Executor.
func TestExecutorPathMatchesLocal(t *testing.T) {
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			opts := RunOptions{Scale: 0.01, Workers: 1, Seed: 1}
			local, err := Run(context.Background(), id, opts)
			if err != nil {
				t.Fatal(err)
			}
			exec := &replayExecutor{t: t}
			remoteOpts := opts
			remoteOpts.Exec = exec
			remote, err := Run(context.Background(), id, remoteOpts)
			if err != nil {
				t.Fatal(err)
			}
			if exec.calls != 1 {
				t.Fatalf("executor invoked %d times, want 1", exec.calls)
			}
			if got, want := remote.String(), local.String(); got != want {
				t.Errorf("executor CSV differs from local:\n--- local ---\n%s--- executor ---\n%s", want, got)
			}
		})
	}
}

// TestExecutorShortCount: an executor returning the wrong record count is
// an error, not a silent truncation.
func TestExecutorShortCount(t *testing.T) {
	opts := RunOptions{Scale: 0.3, Workers: 1, Seed: 1,
		Exec: executorFunc(func(ctx context.Context, id string, o RunOptions, n int) ([]json.RawMessage, error) {
			return make([]json.RawMessage, n-1), nil
		})}
	if _, err := Run(context.Background(), "fig2", opts); err == nil {
		t.Fatal("a short record set assembled without error")
	}
}

type executorFunc func(context.Context, string, RunOptions, int) ([]json.RawMessage, error)

func (f executorFunc) ExecTasks(ctx context.Context, id string, opts RunOptions, n int) ([]json.RawMessage, error) {
	return f(ctx, id, opts, n)
}
