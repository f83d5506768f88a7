package trace

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"cos"
)

// reportEvents builds a deterministic v2 trace by running a real probed
// link, so the report sees genuine EVM/erasure/stage data.
func reportEvents(t *testing.T) []Event {
	t.Helper()
	link, err := cos.NewLink(cos.WithSNR(14), cos.WithSeed(101), cos.WithProbe(2))
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 512)
	rand.New(rand.NewSource(102)).Read(data)
	var events []Event
	for i := 0; i < 8; i++ {
		ex, err := link.Send(data, []byte{1, 0, 1, 0})
		if err != nil {
			t.Fatal(err)
		}
		events = append(events, FromExchange(ex))
	}
	return events
}

func TestReportContainsAllSections(t *testing.T) {
	var b bytes.Buffer
	if err := WriteReport(&b, reportEvents(t), SchemaVersion); err != nil {
		t.Fatal(err)
	}
	html := b.String()
	for _, want := range []string{
		"Delivery and outcomes",
		"Pipeline stage latency",
		"Interval-decode error breakdown",
		"Per-subcarrier EVM (Fig. 5)",
		"EVM waterfall (Fig. 7)",
		"Symbol errors per subcarrier (Fig. 6)",
		"Erasure map",
		"Symbol-error waterfall",
		"tx_encode",
		"evd_decode",
		"<svg",
	} {
		if !strings.Contains(html, want) {
			t.Errorf("report missing %q", want)
		}
	}
	for _, banned := range []string{"<script", "http://", "https://"} {
		if strings.Contains(html, banned) {
			t.Errorf("report must be self-contained, found %q", banned)
		}
	}
}

func TestReportDeterministic(t *testing.T) {
	// Byte-identical across renders of the same trace: the report carries
	// no timestamps and iterates everything in a fixed order.
	events := reportEvents(t)
	var a, b bytes.Buffer
	if err := WriteReport(&a, events, SchemaVersion); err != nil {
		t.Fatal(err)
	}
	if err := WriteReport(&b, events, SchemaVersion); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two renders of the same trace differ")
	}
}

func TestReportDegradesForOldTraces(t *testing.T) {
	// v0/v1 traces carry no stage_ns and no probes; the report must render
	// the sections it can and say why the rest are absent.
	events := []Event{
		{Seq: 0, RateMbps: 6, DataOK: true, DataBytes: 1024},
		{Seq: 1, RateMbps: 24, DataOK: true, DataBytes: 1024,
			ControlBits: 16, ControlOK: true, ControlVerified: true, Silences: 5},
	}
	var b bytes.Buffer
	if err := WriteReport(&b, events, 1); err != nil {
		t.Fatal(err)
	}
	html := b.String()
	if !strings.Contains(html, "predates schema v2") {
		t.Error("report should explain missing stage latencies")
	}
	if !strings.Contains(html, "carries no probes") {
		t.Error("report should explain missing probes")
	}
	if strings.Contains(html, "EVM waterfall (Fig. 7)") {
		t.Error("probe sections should be absent without probes")
	}
	if !strings.Contains(html, "Delivery and outcomes") {
		t.Error("outcome summary must render for old traces")
	}
}

func TestReportRejectsEmptyTrace(t *testing.T) {
	var b bytes.Buffer
	if err := WriteReport(&b, nil, SchemaVersion); err == nil {
		t.Error("empty trace should error")
	}
}
