package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"

	"cos/internal/pool"
)

// A TaskSet is a figure decomposed into independent, serializable
// point-tasks. It is the one form every figure executes in: every task is
// addressed by its index, draws only from the private RNG handed to it
// (pool.TaskRNG(seed, i)), and returns a JSON record instead of writing
// into shared state. Assemble folds the records — in index order — back
// into the figure's Result.
//
// The contract that makes remote execution byte-identical to local:
// RunTask(i) is a pure function of (TaskSet construction inputs, i, the
// task seed), and Go's float64 JSON round-trip is exact, so a record
// computed on another host and shipped back through NDJSON unmarshals to
// the same values the in-process task would have produced.
type TaskSet interface {
	// NumTasks returns the task count; valid indices are [0, NumTasks).
	NumTasks() int
	// RunTask executes task i with its private RNG and returns its record.
	RunTask(ctx context.Context, i int, rng *rand.Rand) (json.RawMessage, error)
	// Assemble folds the records, indexed by task, into the figure Result.
	Assemble(recs []json.RawMessage) (*Result, error)
}

// An Executor runs a figure's point-tasks somewhere other than the
// in-process pool — the fleet coordinator implements it by submitting one
// figure_task job per index to cos-serve backends. ExecTasks must return
// exactly n records, where record i is what ts.RunTask(ctx, i,
// pool.TaskRNG(seed, i)) returns for the TaskSet that Tasks(id, opts)
// builds; opts is passed through verbatim so both sides derive the same
// decomposition.
type Executor interface {
	ExecTasks(ctx context.Context, id string, opts RunOptions, n int) ([]json.RawMessage, error)
}

// tasks is the TaskSet every figure is built from: n point-tasks whose
// typed records R are JSON-encoded at the seam. Records must hold finite
// floats only (JSON has no NaN or ±Inf; encoding one fails the task).
//
// Work shared by every point of a figure (a calibration prelude) belongs
// behind a sync.OnceValues captured by run: it is then computed once per
// TaskSet, and because it is a pure function of the construction inputs,
// a backend that builds its own TaskSet derives the same values.
type tasks[R any] struct {
	n        int
	run      func(ctx context.Context, i int, rng *rand.Rand) (R, error)
	assemble func(recs []R) (*Result, error)
}

func (t tasks[R]) NumTasks() int { return t.n }

func (t tasks[R]) RunTask(ctx context.Context, i int, rng *rand.Rand) (json.RawMessage, error) {
	rec, err := t.run(ctx, i, rng)
	if err != nil {
		return nil, err
	}
	return json.Marshal(rec)
}

func (t tasks[R]) Assemble(raw []json.RawMessage) (*Result, error) {
	recs := make([]R, len(raw))
	for i, r := range raw {
		if err := json.Unmarshal(r, &recs[i]); err != nil {
			return nil, fmt.Errorf("experiments: decoding task %d record: %w", i, err)
		}
	}
	return t.assemble(recs)
}

// checkLen reports a record whose slice does not hold the want values its
// task produces. Records may arrive over the wire, so Assemble turns a
// malformed one into an error instead of an index panic.
func checkLen(id string, task, got, want int) error {
	if got != want {
		return fmt.Errorf("experiments: %s task %d record has %d values, want %d", id, task, got, want)
	}
	return nil
}

// runTasks executes a TaskSet and assembles its Result. With opts.Exec
// set, the executor owns task execution (the records come back over the
// wire); otherwise the tasks run on the in-process pool — same per-task
// seeds, same lowest-index-error rule.
func runTasks(ctx context.Context, id string, opts RunOptions, ts TaskSet) (*Result, error) {
	n := ts.NumTasks()
	var recs []json.RawMessage
	if opts.Exec != nil {
		var err error
		recs, err = opts.Exec.ExecTasks(ctx, id, opts, n)
		if err != nil {
			return nil, err
		}
		if len(recs) != n {
			return nil, fmt.Errorf("experiments: executor returned %d records for %s, want %d", len(recs), id, n)
		}
	} else {
		seed := opts.Seed
		if seed == 0 {
			seed = 1
		}
		recs = make([]json.RawMessage, n)
		if err := pool.ForEach(ctx, opts.Workers, n, seed, func(i int, rng *rand.Rand) error {
			rec, err := ts.RunTask(ctx, i, rng)
			if err != nil {
				return err
			}
			recs[i] = rec
			return nil
		}); err != nil {
			return nil, err
		}
	}
	return ts.Assemble(recs)
}
