package serve

import (
	"time"

	"cos"
	"cos/internal/obs"
	"cos/internal/obs/event"
)

// This file is the server's side of the operations plane: the typed event
// vocabulary written to the journal for every job lifecycle transition,
// the per-job flight-recorder correlation (aggregated Exchange.StageNS),
// and the periodic summary frames computed from rolling windows.
//
// Every event payload is a struct, never a map, so the marshaled byte
// stream is deterministic — the same property the NDJSON result streams
// already guarantee.

// Journal event types emitted by the server. The daemon adds its own
// process-level types (server_listening, server_exit) on the same journal.
const (
	// EventJobAdmitted: a job passed validation and entered a shard queue.
	EventJobAdmitted = "job_admitted"
	// EventJobRejected: admission failed (reason overload/draining/invalid).
	EventJobRejected = "job_rejected"
	// EventJobStarted: a shard worker began executing the job.
	EventJobStarted = "job_started"
	// EventJobFinished: the job completed successfully (state done).
	EventJobFinished = "job_finished"
	// EventJobFailed: the job reached state failed.
	EventJobFailed = "job_failed"
	// EventJobCancelled: the job reached state cancelled.
	EventJobCancelled = "job_cancelled"
	// EventJobCached: a submission was served from the content-addressed
	// result cache — the job was born terminal and never touched a shard.
	EventJobCached = "job_cached"
	// EventJobRecovered: a pending submission found in the durable store's
	// WAL was re-admitted after a restart.
	EventJobRecovered = "job_recovered"
	// EventStoreRecovered: one summary of what WAL replay found at startup.
	EventStoreRecovered = "store_recovered"
	// EventDrainBegin: Drain was called; admission has stopped.
	EventDrainBegin = "drain_begin"
	// EventDrainEnd: every worker has exited; clean reports whether the
	// window sufficed.
	EventDrainEnd = "drain_end"
	// EventSummary: periodic rolling-window statistics frame.
	EventSummary = "summary"
)

// AdmittedEvent is the payload of EventJobAdmitted.
type AdmittedEvent struct {
	Kind Kind  `json:"kind"`
	Seed int64 `json:"seed"`
	// Shard is the queue the job landed on; QueueDepth its depth at
	// admission, including this job (>= 1 by construction).
	Shard      int `json:"shard"`
	QueueDepth int `json:"queue_depth"`
}

// RejectedEvent is the payload of EventJobRejected.
type RejectedEvent struct {
	// Reason is "overload", "draining" or "invalid".
	Reason string `json:"reason"`
	Kind   Kind   `json:"kind,omitempty"`
	// Error carries the validation message for invalid specs.
	Error string `json:"error,omitempty"`
	// Shard is the queue that was full (-1 when admission never picked
	// one, i.e. draining/invalid rejects); QueueDepth is that queue's
	// capacity for overload rejects (full by definition), 0 otherwise.
	Shard      int `json:"shard"`
	QueueDepth int `json:"queue_depth"`
}

// StartedEvent is the payload of EventJobStarted.
type StartedEvent struct {
	Kind        Kind    `json:"kind"`
	QueueWaitMS float64 `json:"queue_wait_ms"`
}

// TerminalEvent is the payload of EventJobFinished/Failed/Cancelled: one
// record that answers both "how did it end" and "where did the time go".
type TerminalEvent struct {
	Kind  Kind   `json:"kind"`
	State string `json:"state"`
	Error string `json:"error,omitempty"`
	// RunMS is wall-clock execution time (running -> terminal); zero for
	// jobs cancelled before they started.
	RunMS       float64 `json:"run_ms"`
	QueueWaitMS float64 `json:"queue_wait_ms"`
	ResultBytes int     `json:"result_bytes"`
	// StageNS aggregates the flight recorder's per-exchange stage timings
	// (Exchange.StageNS) over every exchange the job performed, keyed by
	// stage name — the same keys as the trace schema's stage_ns map.
	// Omitted for kinds with no exchange hook (a figure_task job runs one
	// experiment point-task, which builds its own channels, not links).
	StageNS map[string]int64 `json:"stage_ns,omitempty"`
	// TraceDigest is the exemplar link from this (wall-clock) metrics
	// record to the job's deterministic flight-recorder trace: the content
	// address of the NDJSON body GET /jobs/{key}/trace serves. Present only
	// when the job was traced and finished done; TraceBytes is that body's
	// length.
	TraceDigest string `json:"trace_digest,omitempty"`
	TraceBytes  int    `json:"trace_bytes,omitempty"`
}

// CachedEvent is the payload of EventJobCached.
type CachedEvent struct {
	Kind Kind  `json:"kind"`
	Seed int64 `json:"seed"`
	// Digest is the spec's content address — the cache key that hit.
	Digest string `json:"digest"`
	// ResultBytes is the length of the stored byte stream served.
	ResultBytes int `json:"result_bytes"`
}

// RecoveredEvent is the payload of EventJobRecovered.
type RecoveredEvent struct {
	Kind   Kind   `json:"kind"`
	Digest string `json:"digest"`
	// PriorJob is the ID the submission carried in the previous process
	// (informational; the recovered job has a fresh ID).
	PriorJob string `json:"prior_job,omitempty"`
}

// StoreRecoveredEvent is the payload of EventStoreRecovered: what WAL
// replay found and what the server did with it.
type StoreRecoveredEvent struct {
	// Records counts well-formed WAL records replayed.
	Records int `json:"records"`
	// Completed digests have durable result bodies; CacheWarmed of them
	// were loaded into the result cache at startup.
	Completed   int `json:"completed"`
	CacheWarmed int `json:"cache_warmed"`
	// Requeued submissions were re-admitted; Dropped could not be (corrupt
	// or foreign-schema specs, or queues full during recovery — the WAL
	// still holds them for the next restart).
	Requeued int `json:"requeued"`
	Dropped  int `json:"dropped,omitempty"`
	// Failed digests are settled and neither re-run nor cached.
	Failed int `json:"failed,omitempty"`
	// TruncatedBytes is the torn WAL tail discarded (0 for a clean log).
	TruncatedBytes int64 `json:"truncated_bytes,omitempty"`
}

// DrainBeginEvent is the payload of EventDrainBegin.
type DrainBeginEvent struct {
	WindowMS float64 `json:"window_ms"`
}

// DrainEndEvent is the payload of EventDrainEnd.
type DrainEndEvent struct {
	Clean bool `json:"clean"`
}

// SummaryEvent is the payload of EventSummary: a rolling-window view of
// the server, emitted every Config.SummaryEvery. Rates cover the trailing
// summaryWindow; quantiles cover the last summaryQuantileSamples jobs.
type SummaryEvent struct {
	QueueDepth int `json:"queue_depth"`
	Inflight   int `json:"inflight"`
	// SubmitsPerSec counts all admission attempts; JobsPerSec counts jobs
	// reaching a terminal state; RejectsPerSec counts rejections.
	SubmitsPerSec float64 `json:"submits_per_sec"`
	JobsPerSec    float64 `json:"jobs_per_sec"`
	RejectsPerSec float64 `json:"rejects_per_sec"`
	// RejectRate is the rejected fraction of windowed admission attempts.
	RejectRate float64 `json:"reject_rate"`
	// RunMSP50/99 are run-latency quantiles over recent terminal jobs
	// (zero until a job finishes).
	RunMSP50 float64 `json:"run_ms_p50"`
	RunMSP99 float64 `json:"run_ms_p99"`
	// StageMSP50/99 are flight-recorder per-stage quantiles (total ms a
	// job spent in each pipeline stage) over recent jobs.
	StageMSP50 map[string]float64 `json:"stage_ms_p50,omitempty"`
	StageMSP99 map[string]float64 `json:"stage_ms_p99,omitempty"`
	// JournalEvicted/Dropped surface the journal's own pressure counters.
	JournalEvicted uint64 `json:"journal_evicted"`
	JournalDropped uint64 `json:"journal_dropped"`
}

const (
	// summaryWindow is the rolling-rate horizon behind SummaryEvent.
	summaryWindow = 10 * time.Second
	// summaryQuantileSamples bounds the sliding quantile windows.
	summaryQuantileSamples = 256
)

// stageAgg accumulates flight-recorder stage timings across every exchange
// a job performs. It is wired into the job's links as a cos.Observer; the
// simulation loops run on one worker goroutine, so no locking is needed.
type stageAgg struct {
	ns [cos.StageCount]int64
}

// observe adds one exchange's stage timings (cos.Observer signature).
func (a *stageAgg) observe(ex *cos.Exchange) {
	for i, v := range ex.StageNS {
		a.ns[i] += v
	}
}

// toMap renders the totals keyed by stage name, or nil if nothing was
// recorded (e.g. figure_task jobs, which have no exchange hook).
func (a *stageAgg) toMap() map[string]int64 {
	var total int64
	for _, v := range a.ns {
		total += v
	}
	if total == 0 {
		return nil
	}
	m := make(map[string]int64, len(a.ns))
	for i, v := range a.ns {
		m[cos.Stage(i).String()] = v
	}
	return m
}

// opsState is the Server's rolling-window bookkeeping behind summary
// frames. Present (non-nil windows) only when a journal is attached.
type opsState struct {
	submits  *obs.RateWindow // admission attempts (admitted + rejected)
	rejects  *obs.RateWindow
	finishes *obs.RateWindow
	runMS    *obs.QuantileWindow
	stageMS  [cos.StageCount]*obs.QuantileWindow

	stop chan struct{} // closes to stop the summary ticker
	done chan struct{} // closed when the ticker goroutine exits
}

func newOpsState() *opsState {
	o := &opsState{
		submits:  obs.NewRateWindow(summaryWindow, 20),
		rejects:  obs.NewRateWindow(summaryWindow, 20),
		finishes: obs.NewRateWindow(summaryWindow, 20),
		runMS:    obs.NewQuantileWindow(summaryQuantileSamples),
	}
	for i := range o.stageMS {
		o.stageMS[i] = obs.NewQuantileWindow(summaryQuantileSamples)
	}
	return o
}

// emit appends an event to the journal when one is attached.
func (s *Server) emit(typ, job string, payload any) {
	if s.journal != nil {
		s.journal.Append(typ, job, payload)
	}
}

// recordTerminal feeds the rolling windows with one finished job.
func (s *Server) recordTerminal(runMS float64, agg *stageAgg) {
	if s.ops == nil {
		return
	}
	s.ops.finishes.Add(1)
	if runMS > 0 {
		s.ops.runMS.Observe(runMS)
	}
	if agg != nil {
		for i, ns := range agg.ns {
			if ns > 0 {
				s.ops.stageMS[i].Observe(float64(ns) / 1e6)
			}
		}
	}
}

// emitTerminalEvent writes the job's terminal journal event, correlating
// it with the aggregated flight-recorder stage timings.
func (s *Server) emitTerminalEvent(j *Job, agg *stageAgg) {
	if s.journal == nil {
		return
	}
	st := j.Status()
	ev := TerminalEvent{
		Kind:        st.Kind,
		State:       st.State,
		Error:       st.Error,
		ResultBytes: st.ResultBytes,
	}
	if st.StartedAt != nil && st.FinishedAt != nil {
		ev.RunMS = st.FinishedAt.Sub(*st.StartedAt).Seconds() * 1e3
		ev.QueueWaitMS = st.StartedAt.Sub(st.SubmittedAt).Seconds() * 1e3
	}
	if agg != nil {
		ev.StageNS = agg.toMap()
	}
	ev.TraceDigest = st.TraceDigest
	ev.TraceBytes = st.TraceBytes
	typ := EventJobFinished
	switch st.State {
	case StateFailed.String():
		typ = EventJobFailed
	case StateCancelled.String():
		typ = EventJobCancelled
	}
	s.emit(typ, j.id, ev)
	s.recordTerminal(ev.RunMS, agg)
}

// summarize builds a summary frame for time now. Exported to the journal
// via the summary ticker; tests call it directly for determinism.
func (s *Server) summarize(now time.Time) SummaryEvent {
	ev := SummaryEvent{
		QueueDepth: s.queueLen(),
		Inflight:   int(s.inflight.Value()),
	}
	if s.ops != nil {
		ev.SubmitsPerSec = s.ops.submits.RateAt(now)
		ev.JobsPerSec = s.ops.finishes.RateAt(now)
		ev.RejectsPerSec = s.ops.rejects.RateAt(now)
		if submits := s.ops.submits.CountAt(now); submits > 0 {
			ev.RejectRate = float64(s.ops.rejects.CountAt(now)) / float64(submits)
		}
		if s.ops.runMS.Count() > 0 {
			ev.RunMSP50 = s.ops.runMS.Quantile(0.50)
			ev.RunMSP99 = s.ops.runMS.Quantile(0.99)
		}
		p50 := map[string]float64{}
		p99 := map[string]float64{}
		for i, w := range s.ops.stageMS {
			if w.Count() == 0 {
				continue
			}
			name := cos.Stage(i).String()
			p50[name] = w.Quantile(0.50)
			p99[name] = w.Quantile(0.99)
		}
		if len(p50) > 0 {
			ev.StageMSP50, ev.StageMSP99 = p50, p99
		}
	}
	if s.journal != nil {
		ev.JournalEvicted = s.journal.Evicted()
		ev.JournalDropped = s.journal.Dropped()
	}
	return ev
}

// emitSummary appends one summary frame now.
func (s *Server) emitSummary(now time.Time) {
	s.emit(EventSummary, "", s.summarize(now))
}

// startSummaryLoop emits summary frames every interval until stopped (by
// Drain). Called from New when a journal is attached and SummaryEvery > 0.
func (s *Server) startSummaryLoop(every time.Duration) {
	s.ops.stop = make(chan struct{})
	s.ops.done = make(chan struct{})
	go func() {
		defer close(s.ops.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case now := <-t.C:
				s.emitSummary(now)
			case <-s.ops.stop:
				return
			}
		}
	}()
}

// stopSummaryLoop halts the ticker; idempotent via drainOnce's caller.
func (s *Server) stopSummaryLoop() {
	if s.ops != nil && s.ops.stop != nil {
		close(s.ops.stop)
		<-s.ops.done
	}
}

// Journal returns the journal receiving the server's events (nil when
// disabled). The HTTP layer streams it on GET /events.
func (s *Server) Journal() *event.Journal { return s.journal }
