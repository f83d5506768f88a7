package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"

	"cos"
	"cos/internal/trace"
)

// traceCapture records one job's flight-recorder trace (schema v2) into
// memory while the job runs on its shard. The capture shares the job's one
// cos.WithObserver hook with the stage aggregator, so traced jobs pay one
// extra call per exchange and untraced jobs pay nothing.
//
// The captured body is deterministic: the one wall-clock field the trace
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
// Captures run on a single shard worker goroutine; no locking.
type traceCapture struct {
	buf bytes.Buffer
	w   *trace.Writer
}

// newTraceCapture starts a capture. The schema header is written up
// front so workloads with no exchange hook (figure_task jobs) still
// finish with a well-formed, versioned — if event-free — trace.
func newTraceCapture() *traceCapture {
	c := &traceCapture{}
	c.w = trace.NewWriter(&c.buf)
	c.w.WriteHeader()
	return c
}

// observe records one exchange of the job's links. StageNS is dropped:
// it is the only nondeterministic field an exchange carries, and keeping
// the trace body byte-stable is what makes it content-addressable.
func (c *traceCapture) observe(ex *cos.Exchange) {
	ev := trace.FromExchange(ex)
	ev.StageNS = nil
	c.w.Write(ev)
}

// artifact finalizes the capture: flush, content-address, return. Only
// called once, after the job's run returns.
func (c *traceCapture) artifact() (digest string, body []byte) {
	c.w.Flush()
	body = c.buf.Bytes()
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:]), body
}
