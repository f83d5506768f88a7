// Package trace records link sessions as JSON-lines event streams and
// computes offline statistics over them. A trace decouples *running* a
// (slow, simulated) radio session from *analyzing* it: capture once with
// cos-sim -trace, then slice delivery rates, detection accuracy, or
// control throughput without re-simulating.
//
// Capture rides the link's observer hook: attach Writer.Observer with
// cos.WithObserver and every exchange the link completes lands in the
// trace — the same event stream the metrics layer consumes (DESIGN.md
// §trace, README §Observability).
//
// Files begin with a schema header line ({"cos_trace_schema":2}) so
// readers can tell versions apart; Read tolerates files without one (the
// pre-versioning v0 format) and v1 files (per-packet outcomes only), and
// ignores unknown fields on events, so traces written by newer, more
// instrumented builds still load.
//
// Schema v2 is the flight recorder: every event carries the per-stage
// pipeline latencies of its exchange (stage_ns, from the Link's stage
// clock, cos.Exchange.StageNS), and sampled events carry a deep PHY
// introspection probe (per-subcarrier EVM, symbol-error waterfall,
// erasure positions, detector energy margins — captured with
// cos.WithProbe). The probe record is cos.Probe itself, encoded through
// its JSON tags. cos-trace report renders a captured session's probes
// and stage times as a self-contained HTML file.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"cos"
)

// SchemaVersion is the trace-file schema this package writes. Version 2
// adds per-stage pipeline latencies (stage_ns) and sampled PHY probes to
// every event; version 1 was the first self-describing format; files with
// no header are treated as version 0 (v1 event fields, no header line).
// Readers accept all three.
const SchemaVersion = 2

// header is the first line of a versioned trace file.
type header struct {
	Schema int `json:"cos_trace_schema"`
}

// Event is one packet exchange, flattened for serialization.
type Event struct {
	// Seq is the 0-based packet index within the session.
	Seq int `json:"seq"`
	// Time is the simulation timestamp in seconds.
	Time float64 `json:"time"`
	// RateMbps is the data mode used.
	RateMbps int `json:"rate_mbps"`
	// DataOK reports FCS success.
	DataOK bool `json:"data_ok"`
	// DataBytes is the payload size.
	DataBytes int `json:"data_bytes"`
	// ControlBits is the number of control bits embedded (0 = none).
	ControlBits int `json:"control_bits"`
	// ControlOK reports control delivery (genie comparison).
	ControlOK bool `json:"control_ok"`
	// ControlVerified reports CRC-framing validation.
	ControlVerified bool `json:"control_verified"`
	// Silences is the silence-symbol count inserted.
	Silences int `json:"silences"`
	// FalsePositives / FalseNegatives are the detector's errors.
	FalsePositives int `json:"false_positives"`
	FalseNegatives int `json:"false_negatives"`
	// MeasuredSNRdB / ActualSNRdB are the SNR observations.
	MeasuredSNRdB float64 `json:"measured_snr_db"`
	ActualSNRdB   float64 `json:"actual_snr_db"`
	// ControlSubcarriers is the control set used.
	ControlSubcarriers []int `json:"control_subcarriers,omitempty"`
	// StageNS maps pipeline stage names (cos.StageNames) to the wall-clock
	// nanoseconds this exchange spent in them (schema v2; absent in v0/v1
	// traces and for stages that did not run).
	StageNS map[string]int64 `json:"stage_ns,omitempty"`
	// Probe is the deep PHY introspection sample for exchanges captured
	// with cos.WithProbe (schema v2; nil on unsampled events). It encodes
	// through cos.Probe's own JSON tags, which leave out the Seq and
	// ControlSubcarriers the event already carries.
	Probe *cos.Probe `json:"probe,omitempty"`
}

// FromExchange flattens a link exchange into an event; the event shares
// the exchange's slices and its probe.
func FromExchange(ex *cos.Exchange) Event {
	var stageNS map[string]int64
	for i, ns := range ex.StageNS {
		if ns <= 0 {
			continue
		}
		if stageNS == nil {
			stageNS = make(map[string]int64, len(ex.StageNS))
		}
		stageNS[cos.Stage(i).String()] = ns
	}
	return Event{
		Seq:                ex.Seq,
		Time:               ex.Time,
		RateMbps:           ex.Mode.RateMbps,
		DataOK:             ex.DataOK,
		DataBytes:          ex.DataBytes,
		ControlBits:        len(ex.ControlSent),
		ControlOK:          ex.ControlOK,
		ControlVerified:    ex.ControlVerified,
		Silences:           ex.SilencesInserted,
		FalsePositives:     ex.Detection.FalsePositives,
		FalseNegatives:     ex.Detection.FalseNegatives,
		MeasuredSNRdB:      ex.MeasuredSNRdB,
		ActualSNRdB:        ex.ActualSNRdB,
		ControlSubcarriers: ex.ControlSubcarriers,
		StageNS:            stageNS,
		Probe:              ex.Probe,
	}
}

// Writer streams events as JSON lines, prefixed by the schema header.
type Writer struct {
	w         *bufio.Writer
	enc       *json.Encoder
	headerErr error
	wroteHdr  bool
	obsErr    error
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer {
	bw := bufio.NewWriter(w)
	return &Writer{w: bw, enc: json.NewEncoder(bw)}
}

// WriteHeader emits the schema header line if it has not been written
// yet. Write does this implicitly on the first event; callers that may be
// cancelled before any event lands (cos-sim under SIGINT) call it up
// front so even an empty or truncated capture is a well-formed, versioned
// trace.
func (t *Writer) WriteHeader() error {
	if !t.wroteHdr {
		t.wroteHdr = true
		if err := t.enc.Encode(header{Schema: SchemaVersion}); err != nil {
			t.headerErr = fmt.Errorf("trace: header: %w", err)
		}
	}
	return t.headerErr
}

// Write appends one event; the first call emits the schema header line.
func (t *Writer) Write(e Event) error {
	if err := t.WriteHeader(); err != nil {
		return err
	}
	if err := t.enc.Encode(e); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}

// Observer returns a sink for the link's exchange stream: attach it with
// cos.WithObserver and every completed exchange is appended to the trace
// with its on-link sequence number. Write errors are deferred to Err,
// since observers cannot fail the exchange.
func (t *Writer) Observer() cos.Observer {
	return func(ex *cos.Exchange) {
		if t.obsErr != nil {
			return
		}
		if err := t.Write(FromExchange(ex)); err != nil {
			t.obsErr = err
		}
	}
}

// Err returns the first error an Observer write hit, if any.
func (t *Writer) Err() error { return t.obsErr }

// Flush drains buffered output; call before closing the underlying file.
func (t *Writer) Flush() error { return t.w.Flush() }

// FormatError reports a record in a trace stream that failed to parse.
// Event is the index of the offending record; 0 means the stream broke at
// the header position (the file is not a trace at all), which tools treat
// as a usage error rather than a data error.
type FormatError struct {
	Event int
	Err   error
}

func (e *FormatError) Error() string { return fmt.Sprintf("trace: event %d: %v", e.Event, e.Err) }
func (e *FormatError) Unwrap() error { return e.Err }

// ReadVersioned loads every event from a JSON-lines stream and reports the
// file's schema version. A leading schema header is consumed when present
// (its absence means a version-0 file); unknown fields on events are
// ignored, so traces from newer builds with extra instrumentation still
// load. Parse failures are returned as *FormatError.
func ReadVersioned(r io.Reader) ([]Event, int, error) {
	var out []Event
	version := 0
	dec := json.NewDecoder(r)
	first := true
	for {
		var raw json.RawMessage
		if err := dec.Decode(&raw); err == io.EOF {
			break
		} else if err != nil {
			return nil, version, &FormatError{Event: len(out), Err: err}
		}
		if first {
			first = false
			var h header
			if err := json.Unmarshal(raw, &h); err == nil && h.Schema > 0 {
				version = h.Schema
				continue
			}
		}
		var e Event
		if err := json.Unmarshal(raw, &e); err != nil {
			return nil, version, &FormatError{Event: len(out), Err: err}
		}
		out = append(out, e)
	}
	return out, version, nil
}

// Summary aggregates a trace.
type Summary struct {
	// Events is the packet count.
	Events int
	// DataPRR is the fraction of packets whose data survived.
	DataPRR float64
	// ControlAttempts counts packets that carried control bits.
	ControlAttempts int
	// ControlDelivery is the fraction of attempts delivered (genie).
	ControlDelivery float64
	// ControlVerifiedRate is the fraction of attempts CRC-verified.
	ControlVerifiedRate float64
	// ControlBitsDelivered totals delivered control payload bits.
	ControlBitsDelivered int
	// ControlThroughputBps is delivered control bits over the session span.
	ControlThroughputBps float64
	// SilencesTotal counts inserted silence symbols.
	SilencesTotal int
	// FPRate and FNRate are detector error totals normalized by scanned
	// silences/normals... approximated per packet counts here.
	FalsePositives, FalseNegatives int
	// MeanMeasuredSNRdB averages the NIC SNR reports.
	MeanMeasuredSNRdB float64
	// RateHistogram counts packets per data rate.
	RateHistogram map[int]int
	// Probes counts events carrying a PHY introspection probe (schema v2).
	Probes int
	// StageNSTotals sums per-stage pipeline nanoseconds across all events
	// that recorded them (schema v2); empty for v0/v1 traces.
	StageNSTotals map[string]int64
}

// Summarize computes aggregate statistics over events.
func Summarize(events []Event) (*Summary, error) {
	if len(events) == 0 {
		return nil, fmt.Errorf("trace: empty trace")
	}
	s := &Summary{Events: len(events), RateHistogram: map[int]int{}, StageNSTotals: map[string]int64{}}
	dataOK := 0
	ctrlOK, ctrlVerified := 0, 0
	var snrSum float64
	var tMin, tMax float64
	for i, e := range events {
		if e.DataOK {
			dataOK++
		}
		if e.ControlBits > 0 {
			s.ControlAttempts++
			if e.ControlOK {
				ctrlOK++
				s.ControlBitsDelivered += e.ControlBits
			}
			if e.ControlVerified {
				ctrlVerified++
			}
		}
		s.SilencesTotal += e.Silences
		s.FalsePositives += e.FalsePositives
		s.FalseNegatives += e.FalseNegatives
		snrSum += e.MeasuredSNRdB
		s.RateHistogram[e.RateMbps]++
		if e.Probe != nil {
			s.Probes++
		}
		for stage, ns := range e.StageNS {
			s.StageNSTotals[stage] += ns
		}
		if i == 0 || e.Time < tMin {
			tMin = e.Time
		}
		if i == 0 || e.Time > tMax {
			tMax = e.Time
		}
	}
	s.DataPRR = float64(dataOK) / float64(len(events))
	if s.ControlAttempts > 0 {
		s.ControlDelivery = float64(ctrlOK) / float64(s.ControlAttempts)
		s.ControlVerifiedRate = float64(ctrlVerified) / float64(s.ControlAttempts)
	}
	s.MeanMeasuredSNRdB = snrSum / float64(len(events))
	if span := tMax - tMin; span > 0 {
		s.ControlThroughputBps = float64(s.ControlBitsDelivered) / span
	}
	return s, nil
}
