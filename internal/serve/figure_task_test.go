package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"
	"time"

	"cos/internal/experiments"
	"cos/internal/obs"
	"cos/internal/pool"
)

func taskSpec(task int) Spec {
	return Spec{Kind: KindFigureTask, Figure: "fig2", Scale: 0.4, Seed: 1, Workers: 1, Task: task}
}

// TestFigureTaskMatchesLocalRunTask: a figure_task job's record is exactly
// what the in-process TaskSet computes for the same index — the identity
// the fleet's byte-for-byte assembly stands on.
func TestFigureTaskMatchesLocalRunTask(t *testing.T) {
	s := New(Config{Shards: 1, Metrics: obs.NewRegistry()})
	defer s.Drain(30 * time.Second)

	spec := taskSpec(2)
	job, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-job.Done()
	if job.State() != StateDone {
		t.Fatalf("figure_task job ended %s: %v", job.State(), job.Err())
	}
	body, err := io.ReadAll(job.Result())
	if err != nil {
		t.Fatal(err)
	}
	var tr TaskRecord
	if err := json.Unmarshal(bytes.TrimSpace(body), &tr); err != nil {
		t.Fatalf("result is not one TaskRecord line: %v\n%s", err, body)
	}
	if tr.Type != "figure_task" || tr.Figure != "fig2" || tr.Task != 2 {
		t.Fatalf("TaskRecord header = %+v", tr)
	}

	ts, ok := experiments.Tasks("fig2", experiments.RunOptions{Scale: 0.4, Seed: 1, Workers: 1})
	if !ok {
		t.Fatal("fig2 lost its task decomposition")
	}
	want, err := ts.RunTask(t.Context(), 2, pool.TaskRNG(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tr.Record, want) {
		t.Errorf("served record %s differs from local RunTask %s", tr.Record, want)
	}
}

// TestFigureTaskValidation: bad indices, unknown figures, and a task index
// on any other kind are all rejected at admission.
func TestFigureTaskValidation(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"negative index", func() Spec { s := taskSpec(-1); return s }(), "task"},
		{"index past the set", func() Spec { s := taskSpec(1 << 20); return s }(), "task"},
		{"unknown figure", Spec{Kind: KindFigureTask, Figure: "fig999", Task: 0}, "fig999"},
		{"task on a link spec", func() Spec {
			s := Spec{Kind: KindLink, Seed: 1, PayloadBytes: 256, Packets: 10, ControlBits: 32}
			s.Task = 3
			return s
		}(), "task"},
		{"task on a whole figure", Spec{Kind: KindFigure, Figure: "fig2", Task: 1}, "task"},
	}
	for _, tc := range cases {
		err := tc.spec.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, tc.spec)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestFigureTaskDigests: the task index participates in the canonical
// form (distinct tasks are distinct cache entries), and only for the
// figure_task kind — other kinds' digests carry no task field, pinned
// already by the canonical golden.
func TestFigureTaskDigests(t *testing.T) {
	a, b := taskSpec(0), taskSpec(1)
	if a.Digest() == b.Digest() {
		t.Error("task 0 and task 1 share a digest")
	}
	canon, err := Spec{Kind: KindLink, Seed: 1, PayloadBytes: 256, Packets: 10, ControlBits: 32}.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(canon), `"task"`) {
		t.Errorf("link canonical form grew a task field: %s", canon)
	}
	taskCanon, err := a.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(taskCanon), `"task"`) {
		t.Errorf("figure_task canonical form lacks the task field: %s", taskCanon)
	}
}
