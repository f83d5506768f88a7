package trace

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"cos"
)

func sampleEvents() []Event {
	return []Event{
		{Seq: 0, Time: 0.000, RateMbps: 6, DataOK: true, DataBytes: 1024},
		{Seq: 1, Time: 0.002, RateMbps: 24, DataOK: true, DataBytes: 1024,
			ControlBits: 16, ControlOK: true, ControlVerified: true, Silences: 5,
			MeasuredSNRdB: 15},
		{Seq: 2, Time: 0.004, RateMbps: 24, DataOK: false, DataBytes: 1024,
			ControlBits: 16, Silences: 5, FalseNegatives: 1, MeasuredSNRdB: 14},
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	var b strings.Builder
	w := NewWriter(&b)
	for _, e := range sampleEvents() {
		if err := w.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, _, err := ReadVersioned(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("read %d events", len(got))
	}
	if got[1].ControlBits != 16 || !got[1].ControlVerified || got[2].FalseNegatives != 1 {
		t.Errorf("event contents lost: %+v", got)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, _, err := ReadVersioned(strings.NewReader("{\"seq\":0}\nnot json\n")); err == nil {
		t.Error("garbage line should error")
	}
}

func TestWriterEmitsSchemaHeader(t *testing.T) {
	var b strings.Builder
	w := NewWriter(&b)
	if err := w.Write(Event{Seq: 0}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	first := strings.SplitN(b.String(), "\n", 2)[0]
	if first != `{"cos_trace_schema":2}` {
		t.Errorf("first line = %q, want the schema header", first)
	}
	events, version, err := ReadVersioned(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if version != SchemaVersion {
		t.Errorf("version = %d, want %d", version, SchemaVersion)
	}
	if len(events) != 1 {
		t.Errorf("header leaked into events: %d events", len(events))
	}
}

func TestWriteHeaderOnEmptyTrace(t *testing.T) {
	// A session interrupted before its first exchange must still leave a
	// well-formed (header-only) trace behind: WriteHeader is explicit and
	// idempotent, and Write must not duplicate it.
	var b strings.Builder
	w := NewWriter(&b)
	if err := w.WriteHeader(); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteHeader(); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(Event{Seq: 0}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 2 || lines[0] != `{"cos_trace_schema":2}` {
		t.Fatalf("lines = %q, want one header then one event", lines)
	}
	events, version, err := ReadVersioned(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if version != SchemaVersion || len(events) != 1 {
		t.Errorf("version=%d events=%d", version, len(events))
	}
}

func TestV2RoundTripStagesAndProbe(t *testing.T) {
	// Schema v2 payload: per-stage latencies and a PHY probe must survive a
	// write→read cycle intact.
	ev := Event{
		Seq: 7, RateMbps: 24, DataOK: true,
		StageNS: map[string]int64{"tx_encode": 1200, "detect": 340},
		Probe: &cos.Probe{
			NumSymbols:            10,
			EVM:                   []float64{0.1, 0.5},
			SubcarrierErrorCounts: []int{0, 3},
			SymbolErrorPositions:  []int{49},
			ErasurePositions:      []int{1, 49},
			DecoderInputBitErrors: 2,
			DecoderInputBits:      960,
			DetectorThresholds:    []float64{0.02},
			DetectorEnergyRatios:  []float64{7.5},
			NoiseVar:              0.004,
		},
	}
	var b strings.Builder
	w := NewWriter(&b)
	if err := w.Write(ev); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	events, version, err := ReadVersioned(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if version != 2 || len(events) != 1 {
		t.Fatalf("version=%d events=%d", version, len(events))
	}
	got := events[0]
	if got.StageNS["tx_encode"] != 1200 || got.StageNS["detect"] != 340 {
		t.Errorf("stage_ns lost: %v", got.StageNS)
	}
	p := got.Probe
	if p == nil {
		t.Fatal("probe lost")
	}
	if p.NumSymbols != 10 || p.EVM[1] != 0.5 || p.SubcarrierErrorCounts[1] != 3 ||
		p.ErasurePositions[1] != 49 || p.DecoderInputBitErrors != 2 ||
		p.DetectorEnergyRatios[0] != 7.5 || p.NoiseVar != 0.004 {
		t.Errorf("probe contents lost: %+v", p)
	}

	// A live probe survives FromExchange → Write → ReadVersioned whole,
	// except for the two fields the event itself carries.
	link, err := cos.NewLink(cos.WithSNR(14), cos.WithSeed(5), cos.WithProbe(1))
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 256)
	var ex *cos.Exchange
	for i := 0; i < 2; i++ {
		if ex, err = link.Send(data, []byte{1, 0, 1, 1}); err != nil {
			t.Fatal(err)
		}
	}
	if ex.Probe == nil || len(ex.Probe.ErasurePositions) == 0 {
		t.Fatalf("exchange %d carries no probe with erasures: %+v", ex.Seq, ex.Probe)
	}
	b.Reset()
	w = NewWriter(&b)
	if err := w.Write(FromExchange(ex)); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if events, _, err = ReadVersioned(strings.NewReader(b.String())); err != nil {
		t.Fatal(err)
	}
	got = events[0]
	if got.Seq != ex.Seq || !reflect.DeepEqual(got.ControlSubcarriers, ex.ControlSubcarriers) {
		t.Errorf("event seq %d subcarriers %v, want %d %v", got.Seq, got.ControlSubcarriers, ex.Seq, ex.ControlSubcarriers)
	}
	if got.Probe.Seq != 0 || got.Probe.ControlSubcarriers != nil {
		t.Errorf("probe encoded the event's own fields: seq %d subcarriers %v", got.Probe.Seq, got.Probe.ControlSubcarriers)
	}
	if want := probeWireForm(*ex.Probe); !reflect.DeepEqual(*got.Probe, want) {
		t.Errorf("probe round trip:\n got %+v\nwant %+v", *got.Probe, want)
	}
}

// probeWireForm is what a probe reads back as from a trace: Seq and
// ControlSubcarriers cleared, and empty slices nil (omitempty drops them).
func probeWireForm(p cos.Probe) cos.Probe {
	p.Seq, p.ControlSubcarriers = 0, nil
	v := reflect.ValueOf(&p).Elem()
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.Slice && f.Len() == 0 {
			f.SetZero()
		}
	}
	return p
}

func TestReadV1File(t *testing.T) {
	// A v1 trace (header but no stage_ns/probe) reads cleanly under the v2
	// code: new fields stay zero, everything else is kept.
	in := `{"cos_trace_schema":1}
{"seq":0,"data_ok":true,"rate_mbps":24,"control_bits":16,"control_ok":true}
`
	events, version, err := ReadVersioned(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if version != 1 || len(events) != 1 {
		t.Fatalf("version=%d events=%d", version, len(events))
	}
	e := events[0]
	if !e.DataOK || e.RateMbps != 24 || !e.ControlOK {
		t.Errorf("v1 fields misread: %+v", e)
	}
	if e.StageNS != nil || e.Probe != nil {
		t.Errorf("v1 trace grew v2 fields: %+v", e)
	}
}

func TestReadHeaderlessV0File(t *testing.T) {
	// Traces written before versioning have no header line; they must
	// still load, reporting version 0.
	in := `{"seq":0,"data_ok":true}
{"seq":1,"rate_mbps":24}
`
	events, version, err := ReadVersioned(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if version != 0 {
		t.Errorf("version = %d, want 0", version)
	}
	if len(events) != 2 || !events[0].DataOK || events[1].RateMbps != 24 {
		t.Errorf("v0 events misread: %+v", events)
	}
}

func TestReadToleratesUnknownFields(t *testing.T) {
	// A trace from a future, more instrumented build carries extra fields;
	// readers keep what they know and ignore the rest.
	in := `{"cos_trace_schema":1}
{"seq":0,"data_ok":true,"erasure_count":12,"pipeline_stage_ns":{"tx":100}}
`
	events, version, err := ReadVersioned(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if version != 1 || len(events) != 1 || !events[0].DataOK {
		t.Errorf("version=%d events=%+v", version, events)
	}
}

func TestSummarize(t *testing.T) {
	s, err := Summarize(sampleEvents())
	if err != nil {
		t.Fatal(err)
	}
	if s.Events != 3 {
		t.Errorf("Events = %d", s.Events)
	}
	if s.DataPRR < 0.66 || s.DataPRR > 0.67 {
		t.Errorf("DataPRR = %v", s.DataPRR)
	}
	if s.ControlAttempts != 2 || s.ControlDelivery != 0.5 || s.ControlVerifiedRate != 0.5 {
		t.Errorf("control stats: %+v", s)
	}
	if s.ControlBitsDelivered != 16 {
		t.Errorf("bits delivered = %d", s.ControlBitsDelivered)
	}
	// 16 bits over 4 ms.
	if s.ControlThroughputBps < 3999 || s.ControlThroughputBps > 4001 {
		t.Errorf("throughput = %v", s.ControlThroughputBps)
	}
	if s.RateHistogram[24] != 2 || s.RateHistogram[6] != 1 {
		t.Errorf("rate histogram: %v", s.RateHistogram)
	}
	if s.SilencesTotal != 10 || s.FalseNegatives != 1 {
		t.Errorf("silence/detector totals: %+v", s)
	}
	if _, err := Summarize(nil); err == nil {
		t.Error("empty trace should error")
	}
}

func TestObserverCapturesSession(t *testing.T) {
	// The observer hook is how CLIs capture traces now: attach it and the
	// writer sees every exchange with its on-link sequence number.
	var b strings.Builder
	w := NewWriter(&b)
	link, err := cos.NewLink(cos.WithSNR(20), cos.WithSeed(81), cos.WithObserver(w.Observer()))
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 256)
	rand.New(rand.NewSource(82)).Read(data)
	for i := 0; i < 4; i++ {
		if _, err := link.Send(data, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	events, _, err := ReadVersioned(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 4 {
		t.Fatalf("observer captured %d events, want 4", len(events))
	}
	for i, e := range events {
		if e.Seq != i {
			t.Errorf("event %d has seq %d", i, e.Seq)
		}
		if e.DataBytes != len(data) {
			t.Errorf("event %d DataBytes = %d", i, e.DataBytes)
		}
	}
}

func TestFromExchangeEndToEnd(t *testing.T) {
	link, err := cos.NewLink(cos.WithSNR(20), cos.WithSeed(77))
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 512)
	rand.New(rand.NewSource(78)).Read(data)
	var b strings.Builder
	w := NewWriter(&b)
	for i := 0; i < 5; i++ {
		ex, err := link.Send(data, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Write(FromExchange(ex)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	events, _, err := ReadVersioned(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	s, err := Summarize(events)
	if err != nil {
		t.Fatal(err)
	}
	if s.Events != 5 || s.DataPRR < 0.99 {
		t.Errorf("summary of clean session: %+v", s)
	}
	if s.MeanMeasuredSNRdB < 5 {
		t.Errorf("mean measured SNR %v implausible", s.MeanMeasuredSNRdB)
	}
}

func TestFromExchangeCarriesStagesAndProbes(t *testing.T) {
	// A probed link produces v2 events end to end: stage latencies on every
	// exchange, a probe on every sampled one.
	link, err := cos.NewLink(cos.WithSNR(18), cos.WithSeed(91), cos.WithProbe(2))
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 256)
	rand.New(rand.NewSource(92)).Read(data)
	var events []Event
	for i := 0; i < 4; i++ {
		ex, err := link.Send(data, []byte{1, 0, 1, 1})
		if err != nil {
			t.Fatal(err)
		}
		events = append(events, FromExchange(ex))
	}
	probes := 0
	for i, e := range events {
		if len(e.StageNS) == 0 {
			t.Errorf("event %d has no stage latencies", i)
		}
		if e.StageNS["tx_encode"] <= 0 || e.StageNS["evd_decode"] <= 0 {
			t.Errorf("event %d stage_ns incomplete: %v", i, e.StageNS)
		}
		if e.Probe != nil {
			probes++
			if len(e.Probe.EVM) == 0 || e.Probe.NumSymbols <= 0 {
				t.Errorf("event %d probe empty: %+v", i, e.Probe)
			}
		}
	}
	if probes != 2 {
		t.Errorf("probes on %d of 4 events, want every 2nd", probes)
	}
	s, err := Summarize(events)
	if err != nil {
		t.Fatal(err)
	}
	if s.Probes != 2 {
		t.Errorf("Summary.Probes = %d", s.Probes)
	}
	if s.StageNSTotals["evd_decode"] <= 0 {
		t.Errorf("StageNSTotals missing evd_decode: %v", s.StageNSTotals)
	}
}
