package serve

import (
	"encoding/json"
	"testing"
	"time"

	"cos"
	"cos/internal/obs"
	"cos/internal/obs/event"
	"cos/internal/serve/store"
)

// eventsOfType filters a journal snapshot.
func eventsOfType(evs []event.Event, typ string) []event.Event {
	var out []event.Event
	for _, ev := range evs {
		if ev.Type == typ {
			out = append(out, ev)
		}
	}
	return out
}

func decodeInto(t *testing.T, ev event.Event, v any) {
	t.Helper()
	if err := json.Unmarshal(ev.Data, v); err != nil {
		t.Fatalf("decoding %s payload: %v\n%s", ev.Type, err, ev.Data)
	}
}

// TestJobLifecycleEvents is the tentpole's core contract: a job's journal
// trail is admitted -> started -> finished, and the terminal event carries
// the flight recorder's per-stage nanosecond totals.
func TestJobLifecycleEvents(t *testing.T) {
	s := New(Config{Shards: 1, Metrics: obs.NewRegistry()})
	j, err := s.Submit(Spec{Kind: KindLink, Seed: 3, Packets: 5, PayloadBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	s.Drain(5 * time.Second)

	evs := s.Journal().Snapshot(0)
	admitted := eventsOfType(evs, EventJobAdmitted)
	if len(admitted) != 1 || admitted[0].Job != j.ID() {
		t.Fatalf("admitted events = %+v", admitted)
	}
	var adm AdmittedEvent
	decodeInto(t, admitted[0], &adm)
	if adm.Kind != KindLink || adm.Seed != 3 || adm.Shard != 0 || adm.QueueDepth < 1 {
		t.Fatalf("admitted payload = %+v", adm)
	}

	started := eventsOfType(evs, EventJobStarted)
	if len(started) != 1 || started[0].Job != j.ID() {
		t.Fatalf("started events = %+v", started)
	}

	finished := eventsOfType(evs, EventJobFinished)
	if len(finished) != 1 || finished[0].Job != j.ID() {
		t.Fatalf("finished events = %+v", finished)
	}
	var term TerminalEvent
	decodeInto(t, finished[0], &term)
	if term.State != "done" || term.RunMS <= 0 || term.ResultBytes == 0 {
		t.Fatalf("terminal payload = %+v", term)
	}

	// The stage_ns map must cover the full flight-recorder stage
	// vocabulary, with real time recorded in the always-on stages.
	if len(term.StageNS) != int(cos.StageCount) {
		t.Fatalf("stage_ns has %d keys, want %d: %v", len(term.StageNS), cos.StageCount, term.StageNS)
	}
	for _, name := range cos.StageNames() {
		if _, ok := term.StageNS[name]; !ok {
			t.Errorf("stage_ns missing stage %q", name)
		}
	}
	for _, always := range []string{"tx_encode", "channel", "rx_frontend"} {
		if term.StageNS[always] <= 0 {
			t.Errorf("stage_ns[%s] = %d, want > 0", always, term.StageNS[always])
		}
	}

	// Sequence numbers order the lifecycle.
	if !(admitted[0].Seq < started[0].Seq && started[0].Seq < finished[0].Seq) {
		t.Fatalf("lifecycle out of order: admitted=%d started=%d finished=%d",
			admitted[0].Seq, started[0].Seq, finished[0].Seq)
	}

	// Drain bracketing.
	if n := len(eventsOfType(evs, EventDrainBegin)); n != 1 {
		t.Fatalf("drain_begin events = %d", n)
	}
	ends := eventsOfType(evs, EventDrainEnd)
	if len(ends) != 1 {
		t.Fatalf("drain_end events = %d", len(ends))
	}
	var de DrainEndEvent
	decodeInto(t, ends[0], &de)
	if !de.Clean {
		t.Fatal("drain_end clean = false, want true")
	}
	if !s.Journal().Closed() {
		t.Fatal("server-owned journal should close at drain end")
	}
}

// TestStageCorrelationAcrossKinds checks that stream and wlan jobs also
// carry flight-recorder totals (figure_task jobs intentionally do not).
func TestStageCorrelationAcrossKinds(t *testing.T) {
	s := New(Config{Shards: 2, Metrics: obs.NewRegistry()})
	defer s.Drain(10 * time.Second)

	for _, tc := range []struct {
		spec      Spec
		wantStage bool
	}{
		{Spec{Kind: KindStream, Sends: 2, StreamBits: 16, PayloadBytes: 64}, true},
		{Spec{Kind: KindWLAN, Stations: 2, Rounds: 3, PayloadBytes: 64}, true},
		{Spec{Kind: KindFigureTask, Figure: "fig2", Scale: 0.05}, false},
	} {
		j, err := s.Submit(tc.spec)
		if err != nil {
			t.Fatalf("%s: %v", tc.spec.Kind, err)
		}
		<-j.Done()
		evs := s.Journal().Snapshot(0)
		var term *TerminalEvent
		for _, ev := range eventsOfType(evs, EventJobFinished) {
			if ev.Job == j.ID() {
				term = new(TerminalEvent)
				decodeInto(t, ev, term)
			}
		}
		if term == nil {
			t.Fatalf("%s: no job_finished event", tc.spec.Kind)
		}
		if tc.wantStage && term.StageNS["tx_encode"] <= 0 {
			t.Errorf("%s: stage_ns = %v, want tx_encode > 0", tc.spec.Kind, term.StageNS)
		}
		if !tc.wantStage && term.StageNS != nil {
			t.Errorf("%s: stage_ns = %v, want omitted", tc.spec.Kind, term.StageNS)
		}
	}
}

func TestRejectEventsCarryQueueContext(t *testing.T) {
	s := New(Config{Shards: 1, QueueDepth: 1, Metrics: obs.NewRegistry()})
	defer s.Drain(10 * time.Second)

	// Invalid spec.
	if _, err := s.Submit(Spec{Kind: "nope"}); err == nil {
		t.Fatal("invalid spec admitted")
	}
	// Saturate the single shard: one running + one queued, then overload.
	slow := Spec{Kind: KindLink, Packets: 2000, PayloadBytes: 64}
	var overloaded bool
	for i := 0; i < 64 && !overloaded; i++ {
		_, err := s.Submit(slow)
		overloaded = err == ErrOverloaded
	}
	if !overloaded {
		t.Fatal("never hit ErrOverloaded")
	}

	evs := s.Journal().Snapshot(0)
	rejects := eventsOfType(evs, EventJobRejected)
	if len(rejects) < 2 {
		t.Fatalf("rejected events = %d, want >= 2", len(rejects))
	}
	var sawInvalid, sawOverload bool
	for _, ev := range rejects {
		var rej RejectedEvent
		decodeInto(t, ev, &rej)
		switch rej.Reason {
		case "invalid":
			sawInvalid = true
			if rej.Error == "" || rej.Shard != -1 {
				t.Errorf("invalid reject payload = %+v", rej)
			}
		case "overload":
			sawOverload = true
			if rej.Shard != 0 || rej.QueueDepth < 1 {
				t.Errorf("overload reject payload = %+v", rej)
			}
		}
	}
	if !sawInvalid || !sawOverload {
		t.Fatalf("missing reject reasons: invalid=%v overload=%v", sawInvalid, sawOverload)
	}
}

// TestAdmittedPrecedesStarted: a job's admitted event is journaled before
// a worker can dequeue it. The store's admission fsync runs off the server
// lock after the job is queued, so an admitted event emitted after that
// point would let an idle worker journal job_started first.
func TestAdmittedPrecedesStarted(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	const n = 40
	s := New(Config{Shards: 1, QueueDepth: n, Metrics: obs.NewRegistry(), Store: st})
	jobs := make([]*Job, 0, n)
	for i := 0; i < n; i++ {
		j, err := s.Submit(fastLinkSpec(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	for _, j := range jobs {
		<-j.Done()
	}
	s.Drain(5 * time.Second)

	evs := s.Journal().Snapshot(0)
	admitted := make(map[string]uint64, n)
	for _, ev := range eventsOfType(evs, EventJobAdmitted) {
		admitted[ev.Job] = ev.Seq
	}
	started := eventsOfType(evs, EventJobStarted)
	if len(admitted) != n || len(started) != n {
		t.Fatalf("admitted %d, started %d events; want %d each", len(admitted), len(started), n)
	}
	for _, ev := range started {
		if seq, ok := admitted[ev.Job]; !ok || seq >= ev.Seq {
			t.Errorf("%s: job_started seq %d, job_admitted seq %d (present %v)", ev.Job, ev.Seq, seq, ok)
		}
	}
}

func TestDrainingRejectEventAndSharedJournalStaysOpen(t *testing.T) {
	j := event.New(64)
	s := New(Config{Shards: 1, Metrics: obs.NewRegistry(), Journal: j})
	s.Drain(time.Second)
	if _, err := s.Submit(Spec{Kind: KindLink}); err != ErrDraining {
		t.Fatalf("submit while draining = %v", err)
	}
	rejects := eventsOfType(j.Snapshot(0), EventJobRejected)
	if len(rejects) != 1 {
		t.Fatalf("rejected events = %d, want 1", len(rejects))
	}
	var rej RejectedEvent
	decodeInto(t, rejects[0], &rej)
	if rej.Reason != "draining" {
		t.Fatalf("reason = %q", rej.Reason)
	}
	// An externally supplied journal is the daemon's to close, not the
	// server's.
	if j.Closed() {
		t.Fatal("shared journal closed by Drain")
	}
}

func TestSummaryFrames(t *testing.T) {
	s := New(Config{Shards: 1, Metrics: obs.NewRegistry()})
	j, err := s.Submit(Spec{Kind: KindLink, Packets: 3, PayloadBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()

	sum := s.summarize(time.Now())
	if sum.SubmitsPerSec <= 0 {
		t.Fatalf("submits_per_sec = %v, want > 0", sum.SubmitsPerSec)
	}
	if sum.JobsPerSec <= 0 {
		t.Fatalf("jobs_per_sec = %v, want > 0", sum.JobsPerSec)
	}
	if sum.RejectRate != 0 {
		t.Fatalf("reject_rate = %v, want 0", sum.RejectRate)
	}
	if sum.RunMSP50 <= 0 || sum.RunMSP99 < sum.RunMSP50 {
		t.Fatalf("run quantiles p50=%v p99=%v", sum.RunMSP50, sum.RunMSP99)
	}
	if sum.StageMSP50["tx_encode"] <= 0 {
		t.Fatalf("stage_ms_p50 = %v, want tx_encode > 0", sum.StageMSP50)
	}

	// The periodic loop emits frames on its own when configured.
	s2 := New(Config{Shards: 1, Metrics: obs.NewRegistry(), SummaryEvery: 10 * time.Millisecond})
	deadline := time.Now().Add(5 * time.Second)
	for len(eventsOfType(s2.Journal().Snapshot(0), EventSummary)) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no summary frame emitted")
		}
		time.Sleep(5 * time.Millisecond)
	}
	s2.Drain(time.Second)
	s.Drain(time.Second)
}

// TestJournalDisabled pins the opt-out: JournalCapacity < 0 records
// nothing and Journal() is nil.
func TestJournalDisabled(t *testing.T) {
	s := New(Config{Shards: 1, Metrics: obs.NewRegistry(), JournalCapacity: -1})
	defer s.Drain(time.Second)
	if s.Journal() != nil {
		t.Fatal("Journal() should be nil when disabled")
	}
	j, err := s.Submit(Spec{Kind: KindLink, Packets: 1, PayloadBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	if j.State() != StateDone {
		t.Fatalf("job state = %v", j.State())
	}
}
