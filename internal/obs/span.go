package obs

import (
	"fmt"
	"sync/atomic"
	"time"
)

// SpanSet times a fixed set of pipeline stages. It is the flight
// recorder's clock: each stage owns a latency histogram in the registry
// (name "<prefix>_<stage>_seconds") plus a per-exchange nanosecond
// accumulator that callers drain into their event stream (the trace
// schema's stage_ns map).
//
// The hot path — StartSpan then Span.End — allocates nothing: a Span is a
// small value, time.Now carries Go's monotonic reading, and both the
// histogram observation and the accumulator update are atomic adds. A
// SpanSet is safe for concurrent use; links that share a registry share
// the histograms (same metric names resolve to the same Histogram) while
// each link drains only its own accumulators.
//
// Nesting is free-form: starting a stage while another is open simply
// accumulates both intervals into their own slots, so an outer
// whole-exchange span can bracket inner per-stage spans.
type SpanSet struct {
	stages []string
	hists  []*Histogram
	ns     []atomic.Int64
}

// NewSpanSet registers one latency histogram per stage under
// "<prefix>_<stage>_seconds" and returns the set. Stage indices passed to
// StartSpan are positions in the stages slice.
func NewSpanSet(r *Registry, prefix, help string, stages []string) *SpanSet {
	if len(stages) == 0 {
		panic("obs: SpanSet needs at least one stage")
	}
	ss := &SpanSet{
		stages: append([]string(nil), stages...),
		hists:  make([]*Histogram, len(stages)),
		ns:     make([]atomic.Int64, len(stages)),
	}
	for i, st := range stages {
		ss.hists[i] = r.Histogram(prefix+"_"+st+"_seconds",
			fmt.Sprintf("%s (stage %q).", help, st), nil)
	}
	return ss
}

// Span is one open timing interval; close it with End. The zero Span is
// inert: End on it records nothing, so conditional instrumentation can
// keep a Span variable without branching at the close site.
type Span struct {
	ss    *SpanSet
	stage int32
	start time.Time
}

// StartSpan opens a span over stage i (an index into the constructor's
// stages). The returned Span must be closed with End; spans may nest and
// interleave freely.
func (ss *SpanSet) StartSpan(i int) Span {
	if i < 0 || i >= len(ss.stages) {
		panic(fmt.Sprintf("obs: span stage %d out of range [0,%d)", i, len(ss.stages)))
	}
	return Span{ss: ss, stage: int32(i), start: time.Now()}
}

// End closes the span: the elapsed monotonic time lands in the stage's
// latency histogram and its per-exchange accumulator. End returns the
// elapsed duration and is a no-op on the zero Span.
func (sp Span) End() time.Duration {
	if sp.ss == nil {
		return 0
	}
	d := time.Since(sp.start)
	sp.ss.hists[sp.stage].Observe(d.Seconds())
	sp.ss.ns[sp.stage].Add(d.Nanoseconds())
	return d
}

// Drain copies the accumulated nanoseconds of every stage into dst
// (len >= Len) and zeroes the accumulators, starting the next exchange's
// window. Histograms are unaffected — they aggregate across exchanges.
func (ss *SpanSet) Drain(dst []int64) {
	for i := range ss.ns {
		dst[i] = ss.ns[i].Swap(0)
	}
}
