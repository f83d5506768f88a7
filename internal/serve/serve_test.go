package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"cos/internal/obs"
)

// newTestServer builds a server on an isolated metrics registry so tests
// can assert exact gauge/counter values without cross-talk.
func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	s := New(cfg)
	t.Cleanup(func() { s.Drain(5 * time.Second) })
	return s
}

// fastLinkSpec is a link job small enough to finish in tens of
// milliseconds.
func fastLinkSpec(seed int64) Spec {
	return Spec{Kind: KindLink, Seed: seed, Packets: 3, PayloadBytes: 64}
}

// slowLinkSpec is a link job that takes far longer than any test timeout;
// it exists to be cancelled (the packet loop polls ctx per packet).
func slowLinkSpec() Spec {
	return Spec{Kind: KindLink, Packets: 1e6, PayloadBytes: 64}
}

func waitTerminal(t *testing.T, j *Job, within time.Duration) Status {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(within):
		t.Fatalf("job %s still %v after %v", j.ID(), j.State(), within)
	}
	return j.Status()
}

func TestStateString(t *testing.T) {
	cases := map[State]string{
		StateQueued:    "queued",
		StateRunning:   "running",
		StateDone:      "done",
		StateFailed:    "failed",
		StateCancelled: "cancelled",
		State(0):       "State(0)",
		State(99):      "State(99)",
	}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Errorf("State(%d).String() = %q, want %q", int(s), got, want)
		}
	}
	for _, s := range []State{StateDone, StateFailed, StateCancelled} {
		if !s.Terminal() {
			t.Errorf("%v should be terminal", s)
		}
	}
	for _, s := range []State{StateQueued, StateRunning, State(0)} {
		if s.Terminal() {
			t.Errorf("%v should not be terminal", s)
		}
	}
}

func TestSpecValidation(t *testing.T) {
	bad := []Spec{
		{},                                                 // missing kind
		{Kind: "bogus"},                                    // unknown kind
		{Kind: KindLink, TimeoutMS: -1},                    // negative timeout
		{Kind: KindLink, Position: "Z"},                    // unknown position
		{Kind: KindLink, SNRdB: 99},                        // SNR out of range
		{Kind: KindLink, PayloadBytes: 4},                  // payload too small
		{Kind: KindLink, PayloadBytes: 4092},               // payload + FCS over the 4095-octet PSDU
		{Kind: KindLink, Packets: -1},                      // negative packets
		{Kind: KindStream, StreamBits: -1},                 // negative stream payload
		{Kind: KindStream, Sends: 1e6},                     // too many sends
		{Kind: KindWLAN, Stations: 99},                     // too many stations
		{Kind: KindWLAN, Rounds: -5},                       // negative rounds
		{Kind: KindFigureTask},                             // missing figure ID
		{Kind: KindFigureTask, Figure: "nope"},             // unknown figure
		{Kind: KindFigureTask, Figure: "fig2", Scale: 2},   // scale out of range
		{Kind: KindLink, Workers: -1},                      // workers would split digests
		{Kind: KindLink, Workers: 4},                       // workers would split digests
		{Kind: KindFigureTask, Figure: "fig2", Workers: 3}, // workers would split digests
	}
	for _, spec := range bad {
		if err := spec.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", spec)
		}
	}
	if err := (Spec{Kind: KindLink, Position: "Z"}).Validate(); err == nil || !strings.Contains(err.Error(), "want A, B, C or flat") {
		t.Errorf("unknown position error = %v, want one listing the valid names", err)
	}
	good := []Spec{
		{Kind: KindLink},
		{Kind: KindLink, PayloadBytes: 4091}, // payload + FCS fill the PSDU exactly
		{Kind: KindStream, Position: "flat"},
		{Kind: KindWLAN, Stations: 2, Rounds: 5},
		{Kind: KindFigureTask, Figure: "fig10a", Workers: 1},
	}
	for _, spec := range good {
		if err := spec.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", spec, err)
		}
	}
}

func TestSubmitRejectsInvalidSpec(t *testing.T) {
	s := newTestServer(t, Config{Shards: 1})
	if _, err := s.Submit(Spec{Kind: "bogus"}); err == nil {
		t.Fatal("Submit accepted an invalid spec")
	}
}

func TestLinkJobRunsToDone(t *testing.T) {
	reg := obs.NewRegistry()
	s := newTestServer(t, Config{Shards: 1, Metrics: reg})
	j, err := s.Submit(fastLinkSpec(7))
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, j, 30*time.Second)
	if st.State != "done" {
		t.Fatalf("state = %s (err %q), want done", st.State, st.Error)
	}
	if st.StartedAt == nil || st.FinishedAt == nil {
		t.Fatal("terminal status missing started/finished stamps")
	}

	// The NDJSON stream must hold one record per packet plus a summary.
	body, err := io.ReadAll(j.Result())
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(body), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d NDJSON lines, want 4 (3 packets + summary):\n%s", len(lines), body)
	}
	var last struct {
		Type    string `json:"type"`
		Packets int    `json:"packets"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if last.Type != "link_summary" || last.Packets != 3 {
		t.Fatalf("last record = %+v, want link_summary for 3 packets", last)
	}

	snap := reg.Snapshot()
	if got := snap[`serve_jobs_finished_total{state="done"}`]; got != 1 {
		t.Errorf("finished{done} = %v, want 1", got)
	}
	if got := snap["serve_queue_depth"]; got != 0 {
		t.Errorf("queue depth after completion = %v, want 0", got)
	}
	if got := snap["serve_jobs_inflight"]; got != 0 {
		t.Errorf("inflight after completion = %v, want 0", got)
	}
}

func TestStreamWLANAndFigureJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations")
	}
	s := newTestServer(t, Config{Shards: 2})
	specs := []Spec{
		{Kind: KindStream, Sends: 2, StreamBits: 8, PayloadBytes: 256},
		{Kind: KindWLAN, Stations: 2, Rounds: 4, PayloadBytes: 64},
		{Kind: KindFigureTask, Figure: "fig10a"},
	}
	for _, spec := range specs {
		j, err := s.Submit(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Kind, err)
		}
		st := waitTerminal(t, j, 120*time.Second)
		if st.State != "done" {
			t.Fatalf("%s job: state %s (err %q)", spec.Kind, st.State, st.Error)
		}
		if st.ResultBytes == 0 {
			t.Fatalf("%s job produced no result bytes", spec.Kind)
		}
	}
}

// TestDeterministicNDJSON is the determinism acceptance gate: two
// submissions of the same job spec + seed return byte-identical NDJSON
// result bodies, including when they run concurrently with other jobs on
// a multi-shard pool.
func TestDeterministicNDJSON(t *testing.T) {
	s := newTestServer(t, Config{Shards: 4, QueueDepth: 32})

	target := Spec{Kind: KindLink, Seed: 42, Packets: 4, PayloadBytes: 128, ControlBits: 16}
	var decoys []*Job
	submit := func(spec Spec) *Job {
		t.Helper()
		j, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		return j
	}

	// Interleave the two target submissions with decoy load on every shard.
	decoys = append(decoys, submit(fastLinkSpec(1)), submit(fastLinkSpec(2)))
	first := submit(target)
	decoys = append(decoys, submit(fastLinkSpec(3)), submit(fastLinkSpec(4)))
	second := submit(target)
	decoys = append(decoys, submit(Spec{Kind: KindWLAN, Stations: 2, Rounds: 3, PayloadBytes: 64}))

	// Stream both targets concurrently while everything runs.
	var wg sync.WaitGroup
	bodies := make([][]byte, 2)
	for i, j := range []*Job{first, second} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b, err := io.ReadAll(j.Result())
			if err == nil {
				bodies[i] = b
			}
		}()
	}
	wg.Wait()

	for _, j := range append(decoys, first, second) {
		if st := waitTerminal(t, j, 60*time.Second); st.State != "done" {
			t.Fatalf("job %s: state %s (err %q)", st.ID, st.State, st.Error)
		}
	}
	if len(bodies[0]) == 0 {
		t.Fatal("empty result body")
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Fatalf("same spec+seed produced different NDJSON bodies:\n--- first ---\n%s\n--- second ---\n%s",
			bodies[0], bodies[1])
	}
	// And a reader attached after completion sees the same bytes.
	replay, err := io.ReadAll(first.Result())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(replay, bodies[0]) {
		t.Fatal("post-completion replay differs from live stream")
	}
}

func TestSubmitOverloadAndQueueGauge(t *testing.T) {
	reg := obs.NewRegistry()
	s := newTestServer(t, Config{Shards: 1, QueueDepth: 1, Metrics: reg})

	// First job occupies the worker; second fills the queue; third must be
	// rejected with ErrOverloaded.
	running, err := s.Submit(slowLinkSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, running, StateRunning, 30*time.Second)
	queued, err := s.Submit(slowLinkSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(fastLinkSpec(1)); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("third submit: err = %v, want ErrOverloaded", err)
	}
	snap := reg.Snapshot()
	if got := snap["serve_queue_depth"]; got != 1 {
		t.Errorf("queue depth = %v, want 1", got)
	}
	if got := snap[`serve_jobs_rejected_total{reason="overload"}`]; got != 1 {
		t.Errorf("rejected{overload} = %v, want 1", got)
	}

	// A later submission reuses capacity freed by cancellation.
	if err := s.Cancel(queued.ID()); err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, queued, 5*time.Second); st.State != "cancelled" {
		t.Fatalf("queued job state = %s, want cancelled", st.State)
	}
	if err := s.Cancel(running.ID()); err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, running, 30*time.Second); st.State != "cancelled" {
		t.Fatalf("running job state = %s, want cancelled", st.State)
	}
}

func waitForState(t *testing.T, j *Job, want State, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		if j.State() == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %v (now %v)", j.ID(), want, j.State())
}

// TestJobCancel covers client cancellation of a running job: the packet
// loop observes the cancelled context mid-simulation.
func TestJobCancel(t *testing.T) {
	s := newTestServer(t, Config{Shards: 1})
	j, err := s.Submit(slowLinkSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, j, StateRunning, 30*time.Second)
	if err := s.Cancel(j.ID()); err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, j, 30*time.Second); st.State != "cancelled" {
		t.Fatalf("state = %s, want cancelled", st.State)
	}
	// The result stream must be closed (EOF) even though the job died.
	if _, err := io.ReadAll(j.Result()); err != nil {
		t.Fatalf("result stream after cancel: %v", err)
	}
}

func TestJobDeadlineFails(t *testing.T) {
	s := newTestServer(t, Config{Shards: 1})
	spec := slowLinkSpec()
	spec.TimeoutMS = 30
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, j, 30*time.Second)
	if st.State != "failed" {
		t.Fatalf("state = %s, want failed", st.State)
	}
	if !strings.Contains(st.Error, "deadline") {
		t.Fatalf("error = %q, want a deadline message", st.Error)
	}
}

func TestUnknownJob(t *testing.T) {
	s := newTestServer(t, Config{Shards: 1})
	if _, err := s.Job("job-999999"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("err = %v, want ErrUnknownJob", err)
	}
	if err := s.Cancel("nope"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("Cancel err = %v, want ErrUnknownJob", err)
	}
}

// TestServerDrain proves the drain contract at the core layer: admission
// stops immediately (ErrDraining), queued and running jobs finish inside
// the window, and Drain reports a clean shutdown.
func TestServerDrain(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(Config{Shards: 2, QueueDepth: 8, Metrics: reg})

	var jobs []*Job
	for i := 0; i < 4; i++ {
		j, err := s.Submit(fastLinkSpec(int64(i + 1)))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}

	drained := make(chan bool, 1)
	go func() { drained <- s.Drain(60 * time.Second) }()

	// Admission must stop as soon as draining begins.
	deadline := time.Now().Add(5 * time.Second)
	for !s.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("server never started draining")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := s.Submit(fastLinkSpec(9)); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit during drain: err = %v, want ErrDraining", err)
	}

	select {
	case clean := <-drained:
		if !clean {
			t.Fatal("Drain reported window expiry for fast jobs")
		}
	case <-time.After(60 * time.Second):
		t.Fatal("Drain did not return")
	}
	for _, j := range jobs {
		if st := j.Status(); st.State != "done" {
			t.Fatalf("job %s after drain: state %s (err %q)", st.ID, st.State, st.Error)
		}
	}
	if got := reg.Snapshot()[`serve_jobs_rejected_total{reason="draining"}`]; got != 1 {
		t.Errorf("rejected{draining} = %v, want 1", got)
	}
	// Idempotent: a second Drain returns the first outcome immediately.
	if !s.Drain(0) {
		t.Error("second Drain call did not report the first outcome")
	}
}

// TestServerDrainCancelsSlowJobs proves the window half of the contract:
// jobs that cannot finish inside the drain window are cancelled, not
// leaked, and Drain still returns.
func TestServerDrainCancelsSlowJobs(t *testing.T) {
	s := New(Config{Shards: 1, QueueDepth: 4, Metrics: obs.NewRegistry()})
	running, err := s.Submit(slowLinkSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, running, StateRunning, 30*time.Second)
	queued, err := s.Submit(slowLinkSpec())
	if err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	clean := s.Drain(50 * time.Millisecond)
	if clean {
		t.Error("Drain reported clean shutdown despite unfinishable jobs")
	}
	if took := time.Since(start); took > 30*time.Second {
		t.Fatalf("Drain took %v; the window is 50ms", took)
	}
	if st := running.Status(); st.State != "cancelled" {
		t.Errorf("running job after drain: %s (err %q), want cancelled", st.State, st.Error)
	}
	if st := queued.Status(); st.State != "cancelled" {
		t.Errorf("queued job after drain: %s (err %q), want cancelled", st.State, st.Error)
	}
}

func TestResultReaderStreamsIncrementally(t *testing.T) {
	b := newBuffer()
	r := b.Reader()
	b.Write([]byte("one\n"))
	buf := make([]byte, 16)
	n, err := r.Read(buf)
	if err != nil || string(buf[:n]) != "one\n" {
		t.Fatalf("first read = %q, %v", buf[:n], err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		n, err := r.Read(buf)
		if err != nil || string(buf[:n]) != "two\n" {
			t.Errorf("second read = %q, %v", buf[:n], err)
		}
		if _, err := r.Read(buf); err != io.EOF {
			t.Errorf("read after close = %v, want EOF", err)
		}
	}()
	time.Sleep(5 * time.Millisecond) // let the reader block
	b.Write([]byte("two\n"))
	b.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("blocked reader never woke")
	}
	if got := b.Len(); got != 8 {
		t.Fatalf("Len = %d, want 8", got)
	}
}
