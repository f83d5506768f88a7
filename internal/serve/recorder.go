package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"

	"cos"
	"cos/internal/trace"
)

// jobRecorder is a job's one exchange observer: the run wires its observe
// method into every link the job builds, and the terminal journal event,
// the rolling stage windows and the trace artifact all read from it.
//
// It keeps two records. stageNS totals the flight recorder's per-stage
// wall-clock time across the job's exchanges. For traced jobs it also
// captures the schema-v2 trace into memory; untraced jobs pay nothing
// for that.
//
// The captured trace is deterministic: the one wall-clock field the trace
// schema carries (stage_ns) is stripped before serialization, so the
// remaining event stream is a pure function of the normalized spec — the
// same property the job's NDJSON result stream already has. That makes
// the finished trace content-addressable by its own SHA-256, persisted
// and replayed with the result-body discipline. Per-job wall-clock stage
// totals still reach operators through the terminal journal event's
// stage_ns map; the trace digest stamped on that same event is the
// exemplar link from the (nondeterministic) runtime metrics to the
// (deterministic) PHY ground truth.
//
// A job runs on a single shard worker goroutine; no locking.
type jobRecorder struct {
	stageNS [cos.StageCount]int64
	buf     bytes.Buffer
	w       *trace.Writer // nil for untraced jobs
}

// newJobRecorder starts a job's record. For a traced job the schema
// header is written up front, so workloads with no exchange hook
// (figure_task jobs) still finish with a well-formed, versioned — if
// event-free — trace.
func newJobRecorder(traced bool) *jobRecorder {
	r := &jobRecorder{}
	if traced {
		r.w = trace.NewWriter(&r.buf)
		r.w.WriteHeader()
	}
	return r
}

// observe records one exchange of the job's links (cos.Observer
// signature). The traced event drops StageNS: it is the only
// nondeterministic field an exchange carries, and keeping the trace body
// byte-stable is what makes it content-addressable.
func (r *jobRecorder) observe(ex *cos.Exchange) {
	for i, v := range ex.StageNS {
		r.stageNS[i] += v
	}
	if r.w != nil {
		ev := trace.FromExchange(ex)
		ev.StageNS = nil
		r.w.Write(ev)
	}
}

// stageMap renders the stage totals keyed by stage name, or nil if
// nothing was recorded (e.g. figure_task jobs, which have no exchange
// hook).
func (r *jobRecorder) stageMap() map[string]int64 {
	var total int64
	for _, v := range r.stageNS {
		total += v
	}
	if total == 0 {
		return nil
	}
	m := make(map[string]int64, len(r.stageNS))
	for i, v := range r.stageNS {
		m[cos.Stage(i).String()] = v
	}
	return m
}

// artifact finalizes a traced job's capture: flush, content-address,
// return. Only called once, after the job's run returns.
func (r *jobRecorder) artifact() (digest string, body []byte) {
	r.w.Flush()
	body = r.buf.Bytes()
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:]), body
}
