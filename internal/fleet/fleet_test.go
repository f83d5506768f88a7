package fleet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cos/internal/experiments"
	"cos/internal/obs"
	"cos/internal/obs/event"
	"cos/internal/serve"
	"cos/internal/serve/cache"
	"cos/internal/serve/client"
	servehttp "cos/internal/serve/http"
)

func newServer(t testing.TB, cfg serve.Config) *serve.Server {
	t.Helper()
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	srv := serve.New(cfg)
	t.Cleanup(func() { srv.Drain(60 * time.Second) })
	return srv
}

func newLoopback(t testing.TB, name string) *Loopback {
	t.Helper()
	return NewLoopback(name, newServer(t, serve.Config{Shards: 1}))
}

// fastBackoff keeps retry sleeps out of the test budget.
func fastBackoff() client.Backoff {
	return client.Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond}
}

func linkSpec(seed int64) serve.Spec {
	return serve.Spec{Kind: serve.KindLink, Seed: seed, PayloadBytes: 256, Packets: 50, ControlBits: 32}
}

// referenceBodies runs each spec serially on one fresh server — the
// ground truth every fleet topology must reproduce byte-for-byte.
func referenceBodies(t *testing.T, specs []serve.Spec) [][]byte {
	t.Helper()
	srv := newServer(t, serve.Config{Shards: 1, QueueDepth: len(specs) + 1})
	out := make([][]byte, len(specs))
	for i, sp := range specs {
		job, err := srv.Submit(sp)
		if err != nil {
			t.Fatalf("reference submit %d: %v", i, err)
		}
		<-job.Done()
		if job.State() != serve.StateDone {
			t.Fatalf("reference job %d ended %s: %v", i, job.State(), job.Err())
		}
		body, err := io.ReadAll(job.Result())
		if err != nil {
			t.Fatal(err)
		}
		out[i] = body
	}
	return out
}

func eventTypes(j *event.Journal) map[string]int {
	counts := map[string]int{}
	for _, ev := range j.Snapshot(0) {
		counts[ev.Type]++
	}
	return counts
}

// TestFigureByteIdenticalAcrossFleetSizes pins the acceptance criterion:
// the same figure through 1 backend, 2 backends, and no fleet at all
// renders byte-identical CSV.
func TestFigureByteIdenticalAcrossFleetSizes(t *testing.T) {
	opts := experiments.RunOptions{Scale: 0.4, Workers: 1, Seed: 1}
	local, err := experiments.Run(context.Background(), "fig2", opts)
	if err != nil {
		t.Fatal(err)
	}
	want := local.String()

	for _, nBackends := range []int{1, 2} {
		backends := make([]Backend, nBackends)
		for i := range backends {
			backends[i] = newLoopback(t, fmt.Sprintf("lo%d", i))
		}
		c := New(Config{Backends: backends, Backoff: fastBackoff()})
		res, err := c.RunFigure(context.Background(), "fig2", experiments.RunOptions{Scale: 0.4, Seed: 1})
		c.Close()
		if err != nil {
			t.Fatalf("%d backends: %v", nBackends, err)
		}
		if got := res.String(); got != want {
			t.Errorf("%d backends: fleet CSV differs from local run:\n--- local ---\n%s--- fleet ---\n%s", nBackends, want, got)
		}
	}
}

// TestKillBackendMidRunFailsOver kills one of two backends while a batch
// is in flight: every task still completes, the assembly is byte-identical
// to the serial reference, and the journal shows the failover and the
// backend going down.
func TestKillBackendMidRunFailsOver(t *testing.T) {
	specs := make([]serve.Spec, 8)
	for i := range specs {
		specs[i] = linkSpec(int64(i + 1))
	}
	want := referenceBodies(t, specs)

	j := event.New(256)
	defer j.Close()
	victim := newLoopback(t, "victim")
	survivor := newLoopback(t, "survivor")
	c := New(Config{
		Backends:      []Backend{victim, survivor},
		Journal:       j,
		Backoff:       fastBackoff(),
		RetryAttempts: 1,
		HealthEvery:   2 * time.Millisecond,
	})
	defer c.Close()

	// Kill the victim the moment it receives its first dispatch, so at
	// least one task sees its backend die under it.
	sub := j.Subscribe(0, 64)
	go func() {
		for ev := range sub.C() {
			if ev.Type == EventFleetDispatch && strings.Contains(string(ev.Data), `"victim"`) {
				victim.Kill()
				return
			}
		}
	}()
	defer sub.Cancel()

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	got, err := c.Run(ctx, specs)
	if err != nil {
		t.Fatalf("Run with a killed backend: %v", err)
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("task %d: fleet body differs from serial reference", i)
		}
	}
	types := eventTypes(j)
	if types[EventFleetFailover] == 0 {
		t.Error("no fleet_failover event after killing a backend")
	}
	if types[EventBackendDown] == 0 {
		t.Error("no backend_down event after killing a backend")
	}
}

// TestAddBackendMidRun grows the fleet while a batch is draining; output
// stays byte-identical and the newcomer is announced.
func TestAddBackendMidRun(t *testing.T) {
	specs := make([]serve.Spec, 8)
	for i := range specs {
		specs[i] = linkSpec(int64(100 + i))
	}
	want := referenceBodies(t, specs)

	j := event.New(256)
	defer j.Close()
	c := New(Config{
		Backends: []Backend{newLoopback(t, "first")},
		Journal:  j,
		Backoff:  fastBackoff(),
	})
	defer c.Close()

	sub := j.Subscribe(0, 64)
	go func() {
		for ev := range sub.C() {
			if ev.Type == EventFleetDispatch {
				c.AddBackend(newLoopback(t, "second"))
				return
			}
		}
	}()
	defer sub.Cancel()

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	got, err := c.Run(ctx, specs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("task %d: fleet body differs from serial reference", i)
		}
	}
	ups := 0
	for _, ev := range j.Snapshot(0) {
		if ev.Type == EventBackendUp && strings.Contains(string(ev.Data), `"second"`) {
			ups++
		}
	}
	if ups != 1 {
		t.Errorf("backend_up for the added backend: got %d events, want 1", ups)
	}
}

// TestRetryOnOverload fills a backend's only queue slot so the fleet's
// submission bounces with ErrOverloaded, and checks the worker retries on
// the same backend (fleet_retry) until the slot frees, still producing the
// right bytes.
func TestRetryOnOverload(t *testing.T) {
	srv := newServer(t, serve.Config{Shards: 1, QueueDepth: 1})
	slow := serve.Spec{Kind: serve.KindLink, Seed: 9, PayloadBytes: 256, Packets: 400, ControlBits: 32}
	running, err := srv.Submit(slow) // will occupy the only shard
	if err != nil {
		t.Fatal(err)
	}
	for running.Status().State != serve.StateRunning.String() {
		time.Sleep(time.Millisecond) // wait for it to leave the queue slot
	}
	queued, err := srv.Submit(slow2(slow)) // fills the only queue slot
	if err != nil {
		t.Fatal(err)
	}

	spec := linkSpec(42)
	want := referenceBodies(t, []serve.Spec{spec})[0]

	j := event.New(256)
	defer j.Close()
	c := New(Config{
		Backends:      []Backend{NewLoopback(t.Name(), srv)},
		Journal:       j,
		Backoff:       client.Backoff{Base: 2 * time.Millisecond, Max: 10 * time.Millisecond},
		RetryAttempts: 10_000, // the queue frees within the test budget
		MaxHops:       100_000,
	})
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	got, err := c.Run(ctx, []serve.Spec{spec})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[0], want) {
		t.Error("body after overload retries differs from serial reference")
	}
	if eventTypes(j)[EventFleetRetry] == 0 {
		t.Error("no fleet_retry events despite a full queue")
	}
	<-running.Done()
	<-queued.Done()
}

// slow2 derives a second distinct slow spec so the cache can't collapse
// the two queue occupants.
func slow2(s serve.Spec) serve.Spec {
	s.Seed++
	return s
}

// TestPermanentFailureFailsFast: a job that runs and fails (timeout) is
// permanent — reported as the lowest-index error without burning the
// failover budget.
func TestPermanentFailureFailsFast(t *testing.T) {
	bad := serve.Spec{Kind: serve.KindLink, Seed: 5, PayloadBytes: 256, Packets: 200_000, ControlBits: 32, TimeoutMS: 1}

	j := event.New(256)
	defer j.Close()
	c := New(Config{
		Backends: []Backend{newLoopback(t, "a"), newLoopback(t, "b")},
		Journal:  j,
		Backoff:  fastBackoff(),
	})
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	_, err := c.Run(ctx, []serve.Spec{linkSpec(1), bad})
	if err == nil {
		t.Fatal("Run succeeded despite a doomed job")
	}
	var jobErr *JobError
	if !errors.As(err, &jobErr) {
		t.Fatalf("error is %v; want a *JobError", err)
	}
	if !strings.Contains(err.Error(), "task 1") {
		t.Errorf("error %q does not name the failing task index", err)
	}
	if n := eventTypes(j)[EventFleetFailover]; n != 0 {
		t.Errorf("permanent failure caused %d failovers; want 0", n)
	}
}

// TestRunFigureMatchesLocal: every registered figure fans out as
// point-tasks over two backends and assembles byte-identical to a local
// run.
func TestRunFigureMatchesLocal(t *testing.T) {
	c := New(Config{Backends: []Backend{newLoopback(t, "lo0"), newLoopback(t, "lo1")}, Backoff: fastBackoff()})
	defer c.Close()
	for _, id := range experiments.IDs() {
		t.Run(id, func(t *testing.T) {
			opts := experiments.RunOptions{Scale: 0.01, Workers: 1, Seed: 1}
			local, err := experiments.Run(context.Background(), id, opts)
			if err != nil {
				t.Fatal(err)
			}
			res, err := c.RunFigure(context.Background(), id, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := res.String(), local.String(); got != want {
				t.Errorf("fleet CSV differs from local run:\n--- local ---\n%s--- fleet ---\n%s", want, got)
			}
		})
	}
}

// TestCacheDedupAcrossRuns: point-tasks are content-addressed, so a second
// identical figure run is served from the result cache — same bytes, no
// second computation. Both workers dispatch into the same server (the
// cache is per-server; sharing one models a fleet over a shared result
// store), which makes the all-cached assertion deterministic regardless
// of which worker wins which task.
func TestCacheDedupAcrossRuns(t *testing.T) {
	j := event.New(1024)
	defer j.Close()
	srv := newServer(t, serve.Config{Shards: 2, Journal: j, Cache: cache.New(0)})
	backends := []Backend{NewLoopback("c0", srv), NewLoopback("c1", srv)}
	c := New(Config{Backends: backends, Backoff: fastBackoff()})
	defer c.Close()

	opts := experiments.RunOptions{Scale: 0.4, Seed: 1}
	first, err := c.RunFigure(context.Background(), "fig2", opts)
	if err != nil {
		t.Fatal(err)
	}
	startedBefore := eventTypes(j)[serve.EventJobStarted]
	second, err := c.RunFigure(context.Background(), "fig2", opts)
	if err != nil {
		t.Fatal(err)
	}
	if first.String() != second.String() {
		t.Error("second fleet run differs from the first")
	}
	types := eventTypes(j)
	if types[serve.EventJobCached] == 0 {
		t.Error("no job_cached events on the second identical run")
	}
	if types[serve.EventJobStarted] != startedBefore {
		t.Errorf("second run started %d fresh jobs; want 0 (all cached)",
			types[serve.EventJobStarted]-startedBefore)
	}
}

// TestSubmitRejectsInvalidSpecLocally: validation fails before anything is
// queued or dispatched.
func TestSubmitRejectsInvalidSpecLocally(t *testing.T) {
	c := New(Config{Backends: []Backend{newLoopback(t, "lo")}, Backoff: fastBackoff()})
	defer c.Close()
	if _, err := c.Submit(context.Background(), serve.Spec{Kind: "bogus"}); err == nil {
		t.Fatal("Submit accepted a bogus kind")
	}
}

// TestCloseFailsPendingTasks: closing with queued work settles every
// pending task with ErrClosed rather than hanging its waiter.
func TestCloseFailsPendingTasks(t *testing.T) {
	lo := newLoopback(t, "lo")
	lo.Kill() // nothing will ever dispatch successfully
	c := New(Config{
		Backends:    []Backend{lo},
		Backoff:     fastBackoff(),
		HealthEvery: time.Millisecond,
		MaxHops:     1 << 20,
	})
	tk, err := c.Submit(context.Background(), linkSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := tk.Wait(context.Background())
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	c.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("pending task settled with %v; want ErrClosed", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("pending task never settled after Close")
	}
}

// TestHostReadsEvictedJobByDigest: the daemon keeps only a window of
// finished jobs, so a job can be evicted between Host.Run's submit and its
// reads. Run then reads the body by spec digest, without failing over,
// whether eviction answers the result read (a cache hit) or the status
// poll of a job that was still running.
func TestHostReadsEvictedJobByDigest(t *testing.T) {
	srv := newServer(t, serve.Config{Shards: 1, Cache: cache.New(0)})
	filler := serve.Spec{Kind: serve.KindLink, Seed: 1, Packets: 1, PayloadBytes: 16}
	warm := serve.Spec{Kind: serve.KindLink, Seed: 2, Packets: 2, PayloadBytes: 64}
	want := map[string][]byte{}
	for _, spec := range []serve.Spec{filler, warm} {
		job, err := srv.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		<-job.Done()
		if want[spec.Digest()], err = io.ReadAll(job.Result()); err != nil {
			t.Fatal(err)
		}
	}

	// In front of every read of a finished job by ID, cache hits of the
	// filler spec push that job out of the server's window.
	var evictions atomic.Int32
	h := servehttp.NewHandler(srv)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if id, ok := strings.CutPrefix(r.URL.Path, "/jobs/job-"); ok && r.Method == http.MethodGet {
			id = "job-" + strings.TrimSuffix(id, "/result")
			if j, err := srv.Job(id); err == nil && j.State().Terminal() {
				for {
					if _, err := srv.Job(id); errors.Is(err, serve.ErrJobEvicted) {
						break
					}
					if _, err := srv.Submit(filler); err != nil {
						t.Error(err)
						return
					}
				}
				evictions.Add(1)
			}
		}
		h.ServeHTTP(w, r)
	}))
	defer ts.Close()

	cold := serve.Spec{Kind: serve.KindLink, Seed: 3, Packets: 2, PayloadBytes: 64}
	host := Host(ts.URL)
	for _, spec := range []serve.Spec{warm, cold} {
		before := evictions.Load()
		body, err := host.Run(context.Background(), spec)
		if err != nil {
			t.Fatalf("Run(seed %d) after eviction: %v", spec.Seed, err)
		}
		if evictions.Load() == before {
			t.Fatalf("Run(seed %d) read no evicted job; the test proves nothing", spec.Seed)
		}
		if w, ok := want[spec.Digest()]; ok && !bytes.Equal(body, w) {
			t.Fatalf("Run(seed %d) returned %d bytes, want the computed %d", spec.Seed, len(body), len(w))
		}
		if got, ok := srv.ResultByDigest(spec.Digest()); !ok || !bytes.Equal(body, got) {
			t.Fatalf("Run(seed %d) body differs from the server's stored result", spec.Seed)
		}
	}
}
