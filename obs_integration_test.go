package cos_test

import (
	"bufio"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"cos"
	"cos/internal/obs"
)

// TestPipelineMetricsEndToEnd runs a realistic session on an isolated
// registry and pins that the link records every pipeline metric there:
// the registry's link and detector counters equal the sums of the
// exchanges' own records, the rate controller moves the budget, and the
// process-wide default registry is left untouched.
func TestPipelineMetricsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-hundred-packet session")
	}
	before := obs.Default().Snapshot()

	// 12 dB with 16 control bits per packet: low enough for detector
	// errors and rate flapping, high enough for control to mostly work
	// (parameters validated against a cos-sim run with the same seed).
	reg := cos.NewMetricsRegistry()
	link, err := cos.NewLink(cos.WithSNR(12), cos.WithSeed(1), cos.WithMetricsRegistry(reg))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	data := make([]byte, 1024)
	const packets = 400
	var dataOK, ctrlSent, inserted, fp, fn, silences, normals int
	for i := 0; i < packets; i++ {
		rng.Read(data)
		budget, err := link.MaxControlBits(len(data))
		if err != nil {
			t.Fatal(err)
		}
		n := 16
		if n > budget {
			n = budget
		}
		n = n / 4 * 4
		ctrl := make([]byte, n)
		for j := range ctrl {
			ctrl[j] = byte(rng.Intn(2))
		}
		ex, err := link.Send(data, ctrl)
		if err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
		if ex.DataOK {
			dataOK++
		}
		if len(ex.ControlSent) > 0 {
			ctrlSent++
		}
		inserted += ex.SilencesInserted
		fp += ex.Detection.FalsePositives
		fn += ex.Detection.FalseNegatives
		silences += ex.Detection.Silences
		normals += ex.Detection.Normals
	}

	snap := reg.Snapshot()
	exact := map[string]int{
		"cos_link_exchanges_total":           packets,
		"cos_link_exchange_seconds_count":    packets,
		"cos_link_data_ok_total":             dataOK,
		"cos_link_control_sent_total":        ctrlSent,
		"cos_link_silences_total":            inserted,
		"cos_detector_false_positives_total": fp,
		"cos_detector_false_negatives_total": fn,
		"cos_detector_truth_silences_total":  silences,
		"cos_detector_truth_normals_total":   normals,
	}
	for name, want := range exact {
		if got := snap[name]; got != float64(want) {
			t.Errorf("%s = %v, want %d", name, got, want)
		}
	}
	if dataOK == 0 || ctrlSent == 0 || inserted == 0 {
		t.Errorf("session carried no traffic to count: data_ok=%d control_sent=%d silences=%d", dataOK, ctrlSent, inserted)
	}
	if fp == 0 || fn == 0 || silences == 0 {
		t.Errorf("session too clean to test the detector counters: fp=%d fn=%d silences=%d", fp, fn, silences)
	}
	if got := snap["cos_ratectl_transitions_total"]; got <= 0 {
		t.Errorf("cos_ratectl_transitions_total = %v, want > 0", got)
	}
	// Latency quantiles must be ordered and sane.
	p50, p99 := snap["cos_link_exchange_seconds_p50"], snap["cos_link_exchange_seconds_p99"]
	if p50 <= 0 || p99 < p50 {
		t.Errorf("exchange latency quantiles: p50=%v p99=%v", p50, p99)
	}

	if after := obs.Default().Snapshot(); !reflect.DeepEqual(before, after) {
		for name, v := range after {
			if before[name] != v {
				t.Errorf("default registry moved: %s %v -> %v", name, before[name], v)
			}
		}
	}
}

// TestLinkMetricCatalogue pins the metric catalogue: the sorted names and
// Prometheus types a fresh link registers on an isolated registry. A
// series added, renamed or dropped is a reviewed diff of this list and of
// the README's Observability section.
func TestLinkMetricCatalogue(t *testing.T) {
	reg := cos.NewMetricsRegistry()
	if _, err := cos.NewLink(cos.WithMetricsRegistry(reg)); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	reg.WriteProm(&b)
	var got []string
	sc := bufio.NewScanner(strings.NewReader(b.String()))
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "# TYPE "); ok {
			got = append(got, rest)
		}
	}
	sort.Strings(got)
	want := []string{
		"cos_detector_false_negatives_total counter",
		"cos_detector_false_positives_total counter",
		"cos_detector_truth_normals_total counter",
		"cos_detector_truth_silences_total counter",
		"cos_link_control_bits_total counter",
		"cos_link_control_ok_total counter",
		"cos_link_control_sent_total counter",
		"cos_link_control_verified_total counter",
		"cos_link_data_lost_total counter",
		"cos_link_data_ok_total counter",
		"cos_link_exchange_seconds histogram",
		"cos_link_exchanges_total counter",
		"cos_link_feedback_losses_total counter",
		"cos_link_probes_total counter",
		"cos_link_rate_packets_total counter",
		"cos_link_silences_total counter",
		"cos_link_stage_channel_seconds histogram",
		"cos_link_stage_control_decode_seconds histogram",
		"cos_link_stage_detect_seconds histogram",
		"cos_link_stage_evd_decode_seconds histogram",
		"cos_link_stage_feedback_seconds histogram",
		"cos_link_stage_rx_frontend_seconds histogram",
		"cos_link_stage_tx_encode_seconds histogram",
		"cos_ratectl_budget gauge",
		"cos_ratectl_budget_selected_total counter",
		"cos_ratectl_transitions_total counter",
		"cos_stream_delivered_total counter",
		"cos_stream_fragment_aborts_total counter",
		"cos_stream_fragments_delivered_total counter",
		"cos_stream_fragments_sent_total counter",
		"cos_stream_sends_total counter",
		"cos_stream_stall_aborts_total counter",
		"cos_stream_stalled_packets_total counter",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("link metric catalogue changed:\ngot  %q\nwant %q", got, want)
	}
}
