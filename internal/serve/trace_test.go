package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"cos/internal/obs"
	"cos/internal/obs/event"
	"cos/internal/serve/cache"
	"cos/internal/serve/store"
	"cos/internal/trace"
)

var updateTraceGolden = flag.Bool("update-trace-golden", false,
	"rewrite testdata/jobtrace_v2.golden from the current capture")

// goldenTraceSpec is the fixture pinned by testdata/jobtrace_v2.golden.
func goldenTraceSpec() Spec {
	return Spec{Kind: KindLink, Seed: 7, Packets: 4, PayloadBytes: 128, SNRdB: 18}
}

const goldenTraceProbeEvery = 2

// goldenTraceDigest pins the content address of the golden trace body, so
// the artifact key itself (not just the bytes) is part of the contract.
const goldenTraceDigest = "206fea3ca61a1d7c306a4388a1172cc2b73bb083bb9245d456c0f0c83b30f3f7"

// submitTraced submits spec with trace options and waits for done.
func submitTraced(t *testing.T, s *Server, spec Spec, probeEvery int) *Job {
	t.Helper()
	j, err := s.SubmitWith(spec, SubmitOptions{Trace: true, ProbeEvery: probeEvery})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, j, 60*time.Second); st.State != "done" {
		t.Fatalf("traced job %s: state %s (err %q)", st.ID, st.State, st.Error)
	}
	return j
}

// TestJobTraceGolden pins the traced-job round trip byte-for-byte: the
// captured body is deterministic (stage_ns stripped), its digest is the
// SHA-256 of exactly those bytes, and the encoding matches the golden. A
// drift here silently re-keys every persisted trace artifact — regenerate
// the golden deliberately (-update-trace-golden), never to "fix" CI.
func TestJobTraceGolden(t *testing.T) {
	s := newTestServer(t, Config{Shards: 1})
	j := submitTraced(t, s, goldenTraceSpec(), goldenTraceProbeEvery)

	body, digest, err := s.JobTrace(j)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(body)
	if want := hex.EncodeToString(sum[:]); digest != want {
		t.Fatalf("trace digest %s does not address the served body (sha256 %s)", digest, want)
	}
	if !*updateTraceGolden && digest != goldenTraceDigest {
		t.Fatalf("trace digest %s, want pinned %s", digest, goldenTraceDigest)
	}

	path := filepath.Join("testdata", "jobtrace_v2.golden")
	if *updateTraceGolden {
		if err := os.WriteFile(path, body, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want) {
		t.Fatalf("trace body drifted from %s (%d bytes, want %d)", path, len(body), len(want))
	}

	// The body is a well-formed schema-v2 trace with the requested probe
	// cadence and no wall-clock stage timings.
	events, version, err := trace.ReadVersioned(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if version != trace.SchemaVersion {
		t.Fatalf("trace schema = %d, want %d", version, trace.SchemaVersion)
	}
	if len(events) != 4 {
		t.Fatalf("trace events = %d, want 4 (one per packet)", len(events))
	}
	probes := 0
	for i, ev := range events {
		if len(ev.StageNS) != 0 {
			t.Fatalf("event %d carries wall-clock stage_ns; capture must strip it", i)
		}
		if ev.Probe != nil {
			probes++
		}
	}
	if probes != 2 {
		t.Fatalf("probes = %d, want 2 (4 packets, cadence 2)", probes)
	}
}

// TestTracedJobsByteIdentical: the acceptance determinism bar — the same
// spec+seed+cadence captured on two independent servers yields
// byte-identical trace bodies and equal digests.
func TestTracedJobsByteIdentical(t *testing.T) {
	spec := Spec{Kind: KindLink, Seed: 99, Packets: 5, PayloadBytes: 96}
	var bodies [][]byte
	var digests []string
	for i := 0; i < 2; i++ {
		s := newTestServer(t, Config{Shards: 2})
		j := submitTraced(t, s, spec, 3)
		body, digest, err := s.JobTrace(j)
		if err != nil {
			t.Fatal(err)
		}
		if digest == "" || len(body) == 0 {
			t.Fatalf("server %d: empty trace (digest %q, %d bytes)", i, digest, len(body))
		}
		bodies = append(bodies, body)
		digests = append(digests, digest)
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Fatal("trace bodies differ across servers for the same spec+seed+cadence")
	}
	if digests[0] != digests[1] {
		t.Fatalf("trace digests differ: %s vs %s", digests[0], digests[1])
	}
}

// TestTraceResultUnaffected: tracing is invisible to the result stream —
// a traced and an untraced run of the same spec produce byte-identical
// NDJSON (which is why they share one spec digest and one cache entry).
func TestTraceResultUnaffected(t *testing.T) {
	spec := Spec{Kind: KindLink, Seed: 21, Packets: 4, PayloadBytes: 64}
	s1 := newTestServer(t, Config{Shards: 1})
	plain, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, plain, 60*time.Second)
	s2 := newTestServer(t, Config{Shards: 1})
	traced := submitTraced(t, s2, spec, 1)
	if !bytes.Equal(plain.buf.Bytes(), traced.buf.Bytes()) {
		t.Fatal("tracing changed the result stream")
	}
	if plain.Digest() != traced.Digest() {
		t.Fatal("trace options leaked into the spec digest")
	}
}

// TestUntracedJobTraceUnavailable: untraced jobs and non-done jobs have
// no trace.
func TestUntracedJobTraceUnavailable(t *testing.T) {
	s := newTestServer(t, Config{Shards: 1})
	j, err := s.Submit(fastLinkSpec(5))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j, 60*time.Second)
	if _, _, err := s.JobTrace(j); !errors.Is(err, ErrTraceUnavailable) {
		t.Fatalf("untraced JobTrace err = %v, want ErrTraceUnavailable", err)
	}
	if st := j.Status(); st.Traced || st.TraceDigest != "" {
		t.Fatalf("untraced status grew trace fields: %+v", st)
	}
	if _, _, err := s.TraceByDigest(j.Digest()); !errors.Is(err, ErrTraceUnavailable) {
		t.Fatal("TraceByDigest should fail for an untraced digest")
	}
}

// TestTraceInvalidOptions: inconsistent trace options fail admission with
// the typed sentinel.
func TestTraceInvalidOptions(t *testing.T) {
	s := newTestServer(t, Config{Shards: 1})
	if _, err := s.SubmitWith(fastLinkSpec(1), SubmitOptions{ProbeEvery: 4}); !errors.Is(err, ErrInvalidTraceOptions) {
		t.Fatalf("ProbeEvery without Trace: err = %v, want ErrInvalidTraceOptions", err)
	}
	if _, err := s.SubmitWith(fastLinkSpec(1), SubmitOptions{Trace: true, ProbeEvery: -1}); !errors.Is(err, ErrInvalidTraceOptions) {
		t.Fatalf("negative ProbeEvery: err = %v, want ErrInvalidTraceOptions", err)
	}
	// wlan links have no probe plumbing and figure tasks no exchange hook:
	// a cadence there would be dropped from the trace without a word.
	for _, spec := range []Spec{
		{Kind: KindWLAN, Stations: 2, Rounds: 3, PayloadBytes: 64},
		{Kind: KindFigureTask, Figure: "fig2", Scale: 0.05},
	} {
		if _, err := s.SubmitWith(spec, SubmitOptions{Trace: true, ProbeEvery: 2}); !errors.Is(err, ErrInvalidTraceOptions) {
			t.Fatalf("traced %s job with ProbeEvery 2: err = %v, want ErrInvalidTraceOptions", spec.Kind, err)
		}
	}
}

// TestTraceCacheReuse: with a store, a cache-hit resubmission at the same
// cadence reuses the persisted trace; a different cadence re-runs.
func TestTraceCacheReuse(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s := newTestServer(t, Config{Shards: 1, Cache: cache.New(0), Store: st})
	spec := Spec{Kind: KindLink, Seed: 31, Packets: 3, PayloadBytes: 64}

	first := submitTraced(t, s, spec, 2)
	firstBody, firstDigest, err := s.JobTrace(first)
	if err != nil {
		t.Fatal(err)
	}

	// Same cadence: served from the cache, trace reused from the store.
	again := submitTraced(t, s, spec, 2)
	if !again.Cached() {
		t.Fatal("same-cadence traced resubmission should hit the result cache")
	}
	againBody, againDigest, err := s.JobTrace(again)
	if err != nil {
		t.Fatal(err)
	}
	if againDigest != firstDigest || !bytes.Equal(againBody, firstBody) {
		t.Fatal("cache-hit trace differs from the original capture")
	}

	// Different cadence: the stored trace cannot satisfy it — re-run.
	other := submitTraced(t, s, spec, 1)
	if other.Cached() {
		t.Fatal("different-cadence traced resubmission must re-run")
	}
	_, otherDigest, err := s.JobTrace(other)
	if err != nil {
		t.Fatal(err)
	}
	if otherDigest == firstDigest {
		t.Fatal("different cadence produced the same trace digest (probes missing?)")
	}

	// An untraced resubmission still cache-hits regardless.
	plain, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, plain, 60*time.Second)
	if !plain.Cached() {
		t.Fatal("untraced resubmission should hit the result cache")
	}
}

// TestTraceSurvivesRestart: the acceptance durability bar — a restarted
// daemon re-serves the same trace bytes from the store, both by digest
// lookup and through a cache-hit resubmission.
func TestTraceSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	spec := Spec{Kind: KindLink, Seed: 47, Packets: 3, PayloadBytes: 64}

	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1 := New(Config{Shards: 1, Metrics: obs.NewRegistry(), Cache: cache.New(0), Store: st1})
	j1 := submitTraced(t, s1, spec, 2)
	body1, digest1, err := s1.JobTrace(j1)
	if err != nil {
		t.Fatal(err)
	}
	s1.Drain(5 * time.Second)
	st1.Close()

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	s2 := newTestServer(t, Config{Shards: 1, Cache: cache.New(0), Store: st2})

	// Digest-addressed lookup with no live job.
	body2, digest2, err := s2.TraceByDigest(j1.Digest())
	if err != nil {
		t.Fatal(err)
	}
	if digest2 != digest1 || !bytes.Equal(body2, body1) {
		t.Fatal("restart changed the persisted trace bytes")
	}

	// A traced resubmission at the same cadence cache-hits and carries the
	// recovered trace metadata.
	j2 := submitTraced(t, s2, spec, 2)
	if !j2.Cached() {
		t.Fatal("post-restart traced resubmission should hit the warmed cache")
	}
	if st := j2.Status(); st.TraceDigest != digest1 || st.TraceBytes != len(body1) {
		t.Fatalf("recovered trace metadata = %s/%d, want %s/%d",
			st.TraceDigest, st.TraceBytes, digest1, len(body1))
	}
}

// TestTraceMissingBodyDemotes: deleting the trace body out from under the
// store demotes the job to "trace unavailable" on replay — recovery (and
// the result body) are unaffected.
func TestTraceMissingBodyDemotes(t *testing.T) {
	dir := t.TempDir()
	spec := Spec{Kind: KindLink, Seed: 53, Packets: 3, PayloadBytes: 64}

	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1 := New(Config{Shards: 1, Metrics: obs.NewRegistry(), Cache: cache.New(0), Store: st1})
	j1 := submitTraced(t, s1, spec, 0)
	_, digest1, err := s1.JobTrace(j1)
	if err != nil {
		t.Fatal(err)
	}
	s1.Drain(5 * time.Second)
	st1.Close()

	if err := os.Remove(filepath.Join(dir, "traces", digest1)); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	rec := st2.Recovery()
	if len(rec.Completed) != 1 {
		t.Fatalf("recovery completed = %d, want 1", len(rec.Completed))
	}
	if rec.Completed[0].Trace != nil {
		t.Fatal("missing trace body must demote to trace-unavailable, not survive replay")
	}
	s2 := newTestServer(t, Config{Shards: 1, Cache: cache.New(0), Store: st2})
	if _, _, err := s2.TraceByDigest(j1.Digest()); !errors.Is(err, ErrTraceUnavailable) {
		t.Fatalf("TraceByDigest err = %v, want ErrTraceUnavailable", err)
	}
	// The result itself still cache-hits.
	if _, ok := s2.ResultByDigest(j1.Digest()); !ok {
		t.Fatal("result body lost alongside the trace demotion")
	}
}

// TestTraceDigestInTerminalEvent: the metrics→trace exemplar link — the
// finished journal event carries the digest of exactly the bytes the
// trace endpoint serves.
func TestTraceDigestInTerminalEvent(t *testing.T) {
	jr := event.New(64)
	s := newTestServer(t, Config{Shards: 1, Journal: jr})
	j := submitTraced(t, s, fastLinkSpec(61), 1)
	body, digest, err := s.JobTrace(j)
	if err != nil {
		t.Fatal(err)
	}

	var ev TerminalEvent
	found := false
	for _, e := range jr.Snapshot(0) {
		if e.Type == EventJobFinished && e.Job == j.ID() {
			if err := json.Unmarshal(e.Data, &ev); err != nil {
				t.Fatal(err)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("no finished event for the traced job")
	}
	if ev.TraceDigest != digest {
		t.Fatalf("finished event trace_digest = %s, want %s", ev.TraceDigest, digest)
	}
	if ev.TraceBytes != len(body) {
		t.Fatalf("finished event trace_bytes = %d, want %d", ev.TraceBytes, len(body))
	}
	sum := sha256.Sum256(body)
	if hex.EncodeToString(sum[:]) != ev.TraceDigest {
		t.Fatal("finished event digest does not address the served trace body")
	}
}

// TestTraceOtherKinds: every workload yields a well-formed trace — WLAN
// jobs capture events from every station link (no probes), figure_task
// jobs have no exchange hook and finish with a valid header-only trace.
func TestTraceOtherKinds(t *testing.T) {
	s := newTestServer(t, Config{Shards: 2})

	wlan := submitTraced(t, s, Spec{Kind: KindWLAN, Stations: 2, Rounds: 3, PayloadBytes: 64}, 0)
	body, _, err := s.JobTrace(wlan)
	if err != nil {
		t.Fatal(err)
	}
	events, version, err := trace.ReadVersioned(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if version != trace.SchemaVersion || len(events) == 0 {
		t.Fatalf("wlan trace: version %d, %d events", version, len(events))
	}

	fig := submitTraced(t, s, Spec{Kind: KindFigureTask, Figure: "fig2", Scale: 0.05}, 0)
	body, _, err = s.JobTrace(fig)
	if err != nil {
		t.Fatal(err)
	}
	events, version, err = trace.ReadVersioned(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if version != trace.SchemaVersion {
		t.Fatalf("figure trace version = %d, want %d (header-only)", version, trace.SchemaVersion)
	}
	if len(events) != 0 {
		t.Fatalf("figure trace events = %d, want 0 (no exchange hook)", len(events))
	}
}
