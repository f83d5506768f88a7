package cos

import (
	"fmt"
	"time"

	"cos/internal/obs"
)

// This file owns the pipeline's stage vocabulary and its clock. The node
// implementations (transmitter, channelNode, receiver) time every section
// through linkMetrics.span, and stageNames is a compile-time length-checked
// array, so a stage cannot be added without its name, its latency
// histogram, and its StageNS slot all appearing here.

// Stage identifies one timed section of Link.Send's pipeline. Every
// exchange records the nanoseconds spent in each stage (Exchange.StageNS),
// and the same timers feed per-stage latency histograms
// (cos_link_stage_<name>_seconds) on the metrics registry.
type Stage int

const (
	// StageTxEncode covers the sender: FCS, scramble/encode/interleave/map,
	// silence embedding, and IFFT+CP sample generation (transmitter.Encode).
	StageTxEncode Stage = iota
	// StageChannel covers the TDL channel, noise, and interference
	// (channelNode.Transmit).
	StageChannel
	// StageFrontEnd covers the receiver front end: FFTs, channel estimate,
	// pilot-aided noise estimate, SNR measurement.
	StageFrontEnd
	// StageDetect covers energy detection of silence symbols.
	StageDetect
	// StageControlDecode covers interval extraction and control-bit
	// decoding from the detected silence mask.
	StageControlDecode
	// StageEVD covers the erasure Viterbi decode: demap, deinterleave,
	// depuncture, Viterbi, descramble, FCS check.
	StageEVD
	// StageFeedback covers the receiver's EVM recomputation, subcarrier
	// selection, and (with WithExplicitFeedback) the reverse-channel frame.
	// Stages FrontEnd through Feedback run inside receiver.Receive.
	StageFeedback

	// StageCount is the number of stages; it is not itself a stage.
	StageCount
)

var stageNames = [StageCount]string{
	"tx_encode", "channel", "rx_frontend", "detect",
	"control_decode", "evd_decode", "feedback",
}

// String returns the stage's snake_case name as used in metric names and
// the trace schema's stage_ns keys.
func (s Stage) String() string {
	if s < 0 || s >= StageCount {
		return "unknown"
	}
	return stageNames[s]
}

// StageNames returns the names of all pipeline stages in Stage order.
func StageNames() []string {
	return append([]string(nil), stageNames[:]...)
}

// newStageHistograms registers the per-stage latency histograms,
// cos_link_stage_<name>_seconds. Links sharing a registry share them.
func newStageHistograms(r *obs.Registry) (h [StageCount]*obs.Histogram) {
	for s, name := range stageNames {
		h[s] = r.Histogram("cos_link_stage_"+name+"_seconds",
			fmt.Sprintf("Wall-clock latency of one Link.Send pipeline stage (stage %q).", name), nil)
	}
	return h
}

// stageSpan is one open stage timer; close it with End.
type stageSpan struct {
	m     *linkMetrics
	s     Stage
	start time.Time
}

// span starts the timer for one pipeline stage. Every node goes through
// this helper, so this file holds the complete mapping from Stage to
// recorded time.
func (m *linkMetrics) span(s Stage) stageSpan {
	return stageSpan{m: m, s: s, start: time.Now()}
}

// End adds the elapsed time to the stage's histogram and to the link's
// per-exchange slot. A Link runs on one goroutine, so the slot is a plain
// word; only the shared histogram is atomic.
func (sp stageSpan) End() {
	d := time.Since(sp.start)
	sp.m.stageHists[sp.s].Observe(d.Seconds())
	sp.m.stageNS[sp.s] += d.Nanoseconds()
}

// drainStages moves the per-exchange stage totals into dst and zeroes
// them, starting the next exchange's window.
func (m *linkMetrics) drainStages(dst *[StageCount]int64) {
	*dst = m.stageNS
	m.stageNS = [StageCount]int64{}
}
