package serve

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"
)

// State is a job's lifecycle position. The zero value is invalid; jobs are
// born StateQueued and end in exactly one of StateDone, StateFailed, or
// StateCancelled.
type State int

const (
	// StateQueued: admitted, waiting for a shard worker.
	StateQueued State = iota + 1
	// StateRunning: executing on a shard worker.
	StateRunning
	// StateDone: finished successfully; the full result stream is final.
	StateDone
	// StateFailed: finished with an error (bad spec caught late, a
	// simulation error, or a deadline expiry).
	StateFailed
	// StateCancelled: cancelled before completion — by the client, or by
	// drain when the window expired.
	StateCancelled
)

// String names the state; unknown values render as State(n).
func (s State) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	case StateFailed:
		return "failed"
	case StateCancelled:
		return "cancelled"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Job is one admitted simulation job. All fields are private; read state
// through Status and results through Result.
type Job struct {
	id     string
	seq    uint64 // admission order: the N of job-N
	key    string // the submission's idempotency key ("" when none)
	spec   Spec   // normalized
	digest string // content address: spec.Digest() of the normalized spec
	cached bool   // born terminal from a result-cache hit; never ran

	// traced/probeEvery are the submission's trace request (immutable after
	// admission): traced jobs capture a schema-v2 flight-recorder trace.
	traced     bool
	probeEvery int

	buf *buffer

	mu        sync.Mutex
	state     State
	errMsg    string
	submitted time.Time
	started   time.Time
	finished  time.Time
	cancel    context.CancelFunc // non-nil while running
	cancelReq bool               // client asked for cancellation
	done      chan struct{}      // closed on terminal state

	// traceDigest/traceBody land when a traced job finishes done: the body
	// is the captured NDJSON trace, the digest its own SHA-256 content
	// address. traceBody is nil for jobs recovered or cache-hit from the
	// durable store (the body is read back from disk on demand).
	traceDigest string
	traceBody   []byte
	traceBytes  int
}

// closedDone is the Done channel every cache-hit job shares: such a job
// is born terminal and never finishes again, so nothing closes it twice.
var closedDone = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// newCachedJob builds a job born terminal from a result-cache hit: state
// done, Done() already closed, and the cached body as its closed result
// stream. The body is shared with the cache, not copied. It never touches
// a shard.
func newCachedJob(seq uint64, spec Spec, digest string, body []byte) *Job {
	now := time.Now()
	return &Job{
		id:        jobID(seq),
		seq:       seq,
		spec:      spec,
		digest:    digest,
		cached:    true,
		buf:       closedBuffer(body),
		state:     StateDone,
		submitted: now,
		finished:  now,
		done:      closedDone,
	}
}

// Status is a point-in-time snapshot of a job, shaped for JSON.
type Status struct {
	// ID is the job's server-assigned identifier.
	ID string `json:"id"`
	// Kind echoes the spec's workload.
	Kind Kind `json:"kind"`
	// State is the lifecycle position ("queued", "running", ...).
	State string `json:"state"`
	// Terminal reports whether State is final.
	Terminal bool `json:"terminal"`
	// Error holds the failure message for failed jobs.
	Error string `json:"error,omitempty"`
	// Seed is the normalized seed the job runs with.
	Seed int64 `json:"seed"`
	// Digest is the spec's content address (Spec.Digest): equal digests
	// mean byte-identical result streams.
	Digest string `json:"digest"`
	// Cached reports the job was served from the content-addressed result
	// cache — born terminal, never touched a shard.
	Cached bool `json:"cached,omitempty"`
	// SubmittedAt/StartedAt/FinishedAt stamp the lifecycle (RFC 3339).
	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
	// ResultBytes counts NDJSON result bytes produced so far.
	ResultBytes int `json:"result_bytes"`
	// Traced reports the submission asked for a flight-recorder trace;
	// ProbeEvery is the requested PHY-probe cadence (0 = spans only).
	Traced     bool `json:"traced,omitempty"`
	ProbeEvery int  `json:"probe_every,omitempty"`
	// TraceDigest is the finished trace's own content address (SHA-256 of
	// the NDJSON body served by GET /jobs/{key}/trace); set only once a
	// traced job reaches state done. TraceBytes is that body's length.
	TraceDigest string `json:"trace_digest,omitempty"`
	TraceBytes  int    `json:"trace_bytes,omitempty"`
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Digest returns the spec's content address (Spec.Digest of the
// normalized spec), assigned at admission.
func (j *Job) Digest() string { return j.digest }

// Cached reports whether the job was served from the result cache: born
// terminal with the stored byte stream, without touching a shard.
func (j *Job) Cached() bool { return j.cached }

// State returns the job's current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Err returns the failure message ("" unless StateFailed).
func (j *Job) Err() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.errMsg
}

// Status snapshots the job.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:          j.id,
		Kind:        j.spec.Kind,
		State:       j.state.String(),
		Terminal:    j.state.Terminal(),
		Error:       j.errMsg,
		Seed:        j.spec.Seed,
		Digest:      j.digest,
		Cached:      j.cached,
		SubmittedAt: j.submitted,
		ResultBytes: j.buf.Len(),
		Traced:      j.traced,
		ProbeEvery:  j.probeEvery,
		TraceDigest: j.traceDigest,
		TraceBytes:  j.traceBytes,
	}
	if !j.started.IsZero() {
		t := j.started
		st.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.FinishedAt = &t
	}
	return st
}

// Result returns a reader over the job's NDJSON result stream. Reads block
// until more output arrives and return io.EOF once the job is terminal and
// the stream is fully consumed. Multiple readers each see the full stream.
func (j *Job) Result() *ResultReader { return j.buf.Reader() }

// WriteResult streams the job's NDJSON result to w from the start, as it
// is produced, flushing after each chunk when w has a Flush method (an
// http.ResponseWriter does). It returns nil once the job is terminal and
// the whole stream is written, ctx.Err() as soon as ctx is done — also
// while waiting for a running job's next record — or w's write error.
// The bytes are written straight from the job's result log: nothing is
// copied, and streaming a finished job allocates nothing.
func (j *Job) WriteResult(ctx context.Context, w io.Writer) error {
	return j.buf.writeTo(ctx, w)
}

// setRunning transitions queued → running; it reports false when the job
// was already cancelled.
func (j *Job) setRunning(cancel context.CancelFunc) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.started = time.Now()
	j.cancel = cancel
	return true
}

// finish moves the job to a terminal state exactly once. Optional notify
// hooks run after the state flips but before Done() closes, so an observer
// that waited on Done is guaranteed to see their side effects — the server
// uses this to journal the terminal event before waiters wake.
func (j *Job) finish(s State, errMsg string, notify ...func()) {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return
	}
	j.state = s
	j.errMsg = errMsg
	j.finished = time.Now()
	j.cancel = nil
	j.buf.Close()
	j.mu.Unlock()
	// Only the goroutine that performed the transition reaches this point,
	// so running hooks and closing done outside the lock is single-shot.
	for _, fn := range notify {
		fn()
	}
	close(j.done)
}

// requestCancel flags the job and cancels its run context if it has one.
// Queued jobs are finished immediately (running the notify hooks); running
// jobs finish when their simulation loop observes the cancelled context.
func (j *Job) requestCancel(notify ...func()) {
	j.mu.Lock()
	cancel := j.cancel
	queued := j.state == StateQueued
	j.cancelReq = true
	j.mu.Unlock()
	if queued {
		j.finish(StateCancelled, "", notify...)
	}
	if cancel != nil {
		cancel()
	}
}

// setTrace records a finished capture's artifact. Called by the shard
// worker after run() returns, before the finish hooks persist and
// journal the terminal state.
func (j *Job) setTrace(digest string, body []byte) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.traceDigest = digest
	j.traceBody = body
	j.traceBytes = len(body)
}

// traceInfo snapshots the trace artifact: its digest and the in-memory
// body (nil when the body lives only in the durable store).
func (j *Job) traceInfo() (digest string, body []byte) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.traceDigest, j.traceBody
}

// cancelRequested reports whether a client cancellation is pending.
func (j *Job) cancelRequested() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cancelReq
}
