package serve

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"testing"
	"time"

	"cos/internal/obs"
	"cos/internal/serve/cache"
	"cos/internal/serve/store"
)

func readAll(t *testing.T, j *Job) []byte {
	t.Helper()
	b, err := io.ReadAll(j.Result())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCacheHitServesIdenticalBytes is the tentpole's core contract: a
// repeat submission of the same spec is served from the cache — born
// terminal, never queued — with a byte-identical NDJSON stream.
func TestCacheHitServesIdenticalBytes(t *testing.T) {
	reg := obs.NewRegistry()
	s := newTestServer(t, Config{Shards: 1, Metrics: reg, Cache: cache.New(0)})

	first, err := s.Submit(fastLinkSpec(7))
	if err != nil {
		t.Fatal(err)
	}
	if waitTerminal(t, first, 30*time.Second).State != "done" {
		t.Fatalf("first run failed: %q", first.Err())
	}
	cold := readAll(t, first)

	// Same spec modulo normalization: defaults explicit, position folded.
	respec := fastLinkSpec(7)
	respec.Position = "b"
	respec.Seed = 7
	second, err := s.Submit(respec)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached() {
		t.Fatal("repeat submission missed the cache")
	}
	if second.ID() == first.ID() {
		t.Fatal("cache hit reused the first job's ID")
	}
	st := second.Status()
	if st.State != "done" || !st.Terminal || !st.Cached || st.StartedAt != nil {
		t.Fatalf("cached job status = %+v", st)
	}
	if st.Digest != first.Digest() || st.Digest == "" {
		t.Fatalf("digest mismatch: %q vs %q", st.Digest, first.Digest())
	}
	select {
	case <-second.Done():
	default:
		t.Fatal("cached job's Done channel is open")
	}
	if warm := readAll(t, second); !bytes.Equal(cold, warm) {
		t.Fatalf("cache served different bytes:\ncold %d bytes\nwarm %d bytes", len(cold), len(warm))
	}

	snap := reg.Snapshot()
	if got := snap["serve_cache_hits_total"]; got != 1 {
		t.Errorf("serve_cache_hits_total = %v, want 1", got)
	}
	if got := snap["serve_cache_misses_total"]; got != 1 {
		t.Errorf("serve_cache_misses_total = %v, want 1", got)
	}

	evs := eventsOfType(s.Journal().Snapshot(0), EventJobCached)
	if len(evs) != 1 || evs[0].Job != second.ID() {
		t.Fatalf("job_cached events = %+v", evs)
	}
	var ce CachedEvent
	decodeInto(t, evs[0], &ce)
	if ce.Digest != first.Digest() || ce.ResultBytes != len(cold) {
		t.Fatalf("cached payload = %+v", ce)
	}
}

// TestNoCacheMeansEverySubmissionRuns pins the opt-in: without a cache the
// determinism guarantee is exercised by real recomputation.
func TestNoCacheMeansEverySubmissionRuns(t *testing.T) {
	s := newTestServer(t, Config{Shards: 1})
	for i := 0; i < 2; i++ {
		j, err := s.Submit(fastLinkSpec(3))
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, j, 30*time.Second)
		if j.Cached() {
			t.Fatal("job reported cached with caching disabled")
		}
	}
}

// TestCacheWarmTenfoldOverCold is the cache's acceptance bar: n distinct
// link specs run cold on the shard pool, then are resubmitted warm and
// served from the cache. Every warm stream must be byte-identical to its
// cold run, and the warm pass must finish at least 10x faster — a hit is
// a map lookup plus a buffer copy, against an FFT/Viterbi simulation.
func TestCacheWarmTenfoldOverCold(t *testing.T) {
	const n = 8
	s := newTestServer(t, Config{Shards: 2, QueueDepth: n, Cache: cache.New(0)})
	runAll := func(wantCached bool) (time.Duration, [][]byte) {
		start := time.Now()
		jobs := make([]*Job, 0, n)
		for i := 0; i < n; i++ {
			j, err := s.Submit(Spec{Kind: KindLink, Seed: int64(i + 1), PayloadBytes: 256, Packets: 10, ControlBits: 32})
			if err != nil {
				t.Fatalf("submit %d: %v", i, err)
			}
			if j.Cached() != wantCached {
				t.Fatalf("job %d cached=%v, want %v", i, j.Cached(), wantCached)
			}
			jobs = append(jobs, j)
		}
		bodies := make([][]byte, 0, n)
		for i, j := range jobs {
			if st := waitTerminal(t, j, 60*time.Second); st.State != "done" {
				t.Fatalf("job %d finished %q (err %q)", i, st.State, st.Error)
			}
			bodies = append(bodies, readAll(t, j))
		}
		return time.Since(start), bodies
	}

	cold, coldBodies := runAll(false)
	warm, warmBodies := runAll(true)
	for i := range coldBodies {
		if !bytes.Equal(coldBodies[i], warmBodies[i]) {
			t.Fatalf("spec %d: warm stream differs from cold (%d vs %d bytes)",
				i, len(warmBodies[i]), len(coldBodies[i]))
		}
	}
	if speedup := cold.Seconds() / warm.Seconds(); speedup < 10 {
		t.Fatalf("warm/cold speedup = %.1fx, want >= 10x (cold %v, warm %v for %d jobs)", speedup, cold, warm, n)
	}
}

func TestIdempotencyKeyReturnsSameJob(t *testing.T) {
	s := newTestServer(t, Config{Shards: 1})
	j1, err := s.SubmitWith(fastLinkSpec(9), SubmitOptions{IdempotencyKey: "retry-1"})
	if err != nil {
		t.Fatal(err)
	}
	j2, err := s.SubmitWith(fastLinkSpec(9), SubmitOptions{IdempotencyKey: "retry-1"})
	if err != nil {
		t.Fatal(err)
	}
	if j1 != j2 {
		t.Fatalf("idempotent retry admitted a second job: %s vs %s", j1.ID(), j2.ID())
	}
	// A different key is a fresh submission even for the same spec.
	j3, err := s.SubmitWith(fastLinkSpec(9), SubmitOptions{IdempotencyKey: "retry-2"})
	if err != nil {
		t.Fatal(err)
	}
	if j3 == j1 {
		t.Fatal("distinct keys collapsed onto one job")
	}
}

func TestJobAndResultByDigest(t *testing.T) {
	s := newTestServer(t, Config{Shards: 1, Cache: cache.New(0)})
	j, err := s.Submit(fastLinkSpec(11))
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.JobByDigest(j.Digest())
	if err != nil || got != j {
		t.Fatalf("JobByDigest = %v, %v", got, err)
	}
	if _, err := s.JobByDigest("no-such-digest"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("unknown digest error = %v, want ErrUnknownJob", err)
	}
	waitTerminal(t, j, 30*time.Second)
	body, ok := s.ResultByDigest(j.Digest())
	if !ok || !bytes.Equal(body, readAll(t, j)) {
		t.Fatalf("ResultByDigest = %d bytes, %v", len(body), ok)
	}
	if _, ok := s.ResultByDigest(slowLinkSpec().Digest()); ok {
		t.Fatal("ResultByDigest returned a body for a spec that never ran")
	}
}

// TestStoreRecoveryAcrossRestart is the durability contract end to end at
// the core layer: a "crashed" server (drain window 0 cancels its queued
// work, so no terminal records are written) restarted on the same data
// directory re-serves completed digests byte-identically and re-runs the
// interrupted submission.
func TestStoreRecoveryAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1 := New(Config{Shards: 1, Metrics: obs.NewRegistry(), Cache: cache.New(0), Store: st1})
	done, err := s1.Submit(fastLinkSpec(21))
	if err != nil {
		t.Fatal(err)
	}
	if waitTerminal(t, done, 30*time.Second).State != "done" {
		t.Fatalf("seed job failed: %q", done.Err())
	}
	coldBody := readAll(t, done)
	interrupted, err := s1.Submit(slowLinkSpec())
	if err != nil {
		t.Fatal(err)
	}
	s1.Drain(0) // window 0: the slow job is cancelled, like a crash
	if st := interrupted.State(); st != StateCancelled {
		t.Fatalf("interrupted job = %v, want cancelled", st)
	}
	st1.Close()

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	s2 := New(Config{Shards: 1, Metrics: obs.NewRegistry(), Cache: cache.New(0), Store: st2})
	defer s2.Drain(10 * time.Second)

	// The completed digest serves byte-identically, without re-running.
	body, ok := s2.ResultByDigest(done.Digest())
	if !ok || !bytes.Equal(body, coldBody) {
		t.Fatalf("restarted ResultByDigest = %d bytes, %v; want the original %d", len(body), ok, len(coldBody))
	}
	resub, err := s2.Submit(fastLinkSpec(21))
	if err != nil {
		t.Fatal(err)
	}
	if !resub.Cached() {
		t.Fatal("resubmission after restart missed the recovered cache")
	}
	if !bytes.Equal(readAll(t, resub), coldBody) {
		t.Fatal("recovered cache served different bytes")
	}

	// The interrupted submission was re-admitted under a fresh ID.
	requeued, err := s2.JobByDigest(interrupted.Digest())
	if err != nil {
		t.Fatalf("interrupted digest not re-admitted: %v", err)
	}
	if requeued.Cached() || requeued.State().Terminal() && requeued.State() != StateDone {
		t.Fatalf("requeued job state = %v, cached=%v", requeued.State(), requeued.Cached())
	}

	evs := s2.Journal().Snapshot(0)
	var sre StoreRecoveredEvent
	recovered := eventsOfType(evs, EventStoreRecovered)
	if len(recovered) != 1 {
		t.Fatalf("store_recovered events = %+v", recovered)
	}
	decodeInto(t, recovered[0], &sre)
	if sre.Completed != 1 || sre.Requeued != 1 || sre.CacheWarmed != 1 {
		t.Fatalf("store_recovered payload = %+v", sre)
	}
	if jr := eventsOfType(evs, EventJobRecovered); len(jr) != 1 || jr[0].Job != requeued.ID() {
		t.Fatalf("job_recovered events = %+v", jr)
	}
	// Cancel rather than wait out the million-packet job; its cancellation
	// writes no record, so it would simply replay again — the semantics
	// this test already proved.
	s2.Cancel(requeued.ID())
}

// TestFailedJobsSettleAcrossRestart: a deadline-failed job writes a
// settled marker, so a restart neither re-runs nor serves it.
func TestFailedJobsSettleAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1 := New(Config{Shards: 1, Metrics: obs.NewRegistry(), Cache: cache.New(0), Store: st1})
	spec := slowLinkSpec()
	spec.TimeoutMS = 30
	j, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, j, 30*time.Second); st.State != "failed" {
		t.Fatalf("state = %s, want failed", st.State)
	}
	s1.Drain(5 * time.Second)
	st1.Close()

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	rec := st2.Recovery()
	if len(rec.Failed) != 1 || len(rec.Pending) != 0 || len(rec.Completed) != 0 {
		t.Fatalf("recovery after failure = %+v, want one settled digest", rec)
	}
	s2 := New(Config{Shards: 1, Metrics: obs.NewRegistry(), Cache: cache.New(0), Store: st2})
	defer s2.Drain(5 * time.Second)
	if _, err := s2.JobByDigest(j.Digest()); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("failed digest was re-admitted: %v", err)
	}
	if _, ok := s2.ResultByDigest(j.Digest()); ok {
		t.Fatal("failed digest has a servable result")
	}
}

// TestRetiredFigureKindInStore: a data directory written while the daemon
// still ran whole-figure jobs recovers cleanly. The pending figure spec is
// unrunnable, so recovery drops it and admits nothing; the completed
// figure body is still the right bytes for its digest and keeps serving.
func TestRetiredFigureKindInStore(t *testing.T) {
	dir := t.TempDir()
	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	pending := Spec{Kind: "figure", Figure: "fig2", Scale: 0.05}
	done := Spec{Kind: "figure", Figure: "fig10a"}
	body := []byte(`{"type":"figure_meta","id":"fig10a","title":"t","x_label":"x","y_label":"y","series":1}` + "\n")
	for i, spec := range []Spec{pending, done} {
		canon, err := spec.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		if err := st1.LogSubmit(fmt.Sprintf("job-%06d", i+1), spec.Digest(), canon); err != nil {
			t.Fatal(err)
		}
	}
	if err := st1.LogResult("job-000002", done.Digest(), "done", "", body, nil); err != nil {
		t.Fatal(err)
	}
	st1.Close()

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	s := New(Config{Shards: 1, Metrics: obs.NewRegistry(), Cache: cache.New(0), Store: st2})
	defer s.Drain(5 * time.Second)

	recovered := eventsOfType(s.Journal().Snapshot(0), EventStoreRecovered)
	if len(recovered) != 1 {
		t.Fatalf("store_recovered events = %+v", recovered)
	}
	var sre StoreRecoveredEvent
	decodeInto(t, recovered[0], &sre)
	if sre.Dropped != 1 || sre.Requeued != 0 || sre.Completed != 1 {
		t.Fatalf("store_recovered payload = %+v, want dropped 1, requeued 0, completed 1", sre)
	}
	if jobs := s.Jobs(); len(jobs) != 0 {
		t.Fatalf("recovery admitted %d jobs for the retired kind: %+v", len(jobs), jobs)
	}
	if got, ok := s.ResultByDigest(done.Digest()); !ok || !bytes.Equal(got, body) {
		t.Fatalf("ResultByDigest = %q, %v; want the stored figure body", got, ok)
	}
}

// TestCacheHitSharesCachedBody: a finished body exists once. The cache
// keeps the computed job's own result bytes, and a cache-hit job streams
// the cache's bytes, so a hit allocates its bookkeeping, not its body.
func TestCacheHitSharesCachedBody(t *testing.T) {
	c := cache.New(0)
	s := newTestServer(t, Config{Shards: 1, Cache: c})
	spec := Spec{Kind: KindLink, Seed: 3, Packets: 200, PayloadBytes: 64}
	first, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, first, 60*time.Second); st.State != "done" {
		t.Fatalf("computing run ended %s: %s", st.State, st.Error)
	}
	body := readAll(t, first)
	cached, ok := c.Get(first.Digest())
	if !ok || !bytes.Equal(cached, body) {
		t.Fatalf("cache entry after the run: ok=%v, %d bytes vs %d", ok, len(cached), len(body))
	}
	if &cached[0] != &first.buf.Bytes()[0] {
		t.Error("the cache holds a copy of the computed job's body, not the body")
	}
	hit, err := s.Submit(spec)
	if err != nil || !hit.Cached() {
		t.Fatalf("resubmission: cached=%v err=%v", err == nil && hit.Cached(), err)
	}
	if &hit.buf.Bytes()[0] != &cached[0] {
		t.Error("the cache-hit job holds a copy of the cached body")
	}
	if got := readAll(t, hit); !bytes.Equal(got, body) {
		t.Fatalf("cache hit served %d bytes, want the computed %d", len(got), len(body))
	}

	const n = 200
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if _, err := s.Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perHit := (after.TotalAlloc - before.TotalAlloc) / n
	t.Logf("%d B allocated per cache hit of a %d B body", perHit, len(body))
	if perHit > uint64(len(body))/4 {
		t.Errorf("a cache hit allocates %d B, over a quarter of the %d B body it serves", perHit, len(body))
	}
}
