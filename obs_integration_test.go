package cos_test

import (
	"math/rand"
	"testing"

	"cos"
	"cos/internal/obs"
)

// TestPipelineMetricsEndToEnd runs a realistic session against the default
// registry and asserts the deep-pipeline counters — detector errors,
// Viterbi erasures, rate-table transitions — actually move. It pins the
// contract that instrumentation reaches every stage, not just the link
// wrapper.
func TestPipelineMetricsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-hundred-packet session")
	}
	obs.Default().Reset()

	// 12 dB with 16 control bits per packet: low enough for detector
	// errors and rate flapping, high enough for control to mostly work
	// (parameters validated against a cos-sim run with the same seed).
	link, err := cos.NewLink(cos.WithSNR(12), cos.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	data := make([]byte, 1024)
	const packets = 400
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
		if _, err := link.Send(data, ctrl); err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
	}

	snap := obs.Snapshot()
	mustBePositive := []string{
		"cos_link_exchanges_total",
		"cos_link_data_ok_total",
		"cos_link_control_sent_total",
		"cos_link_silences_total",
		"cos_detector_scans_total",
		"cos_detector_false_positives_total",
		"cos_detector_false_negatives_total",
		"cos_ratectl_lookups_total",
		"cos_ratectl_transitions_total",
		"coding_viterbi_decodes_total",
		"coding_viterbi_erased_metrics_total",
		"phy_tx_packets_total",
		"phy_rx_frontends_total",
		"phy_rx_decodes_total",
		"cos_link_exchange_seconds_count",
	}
	for _, name := range mustBePositive {
		if snap[name] <= 0 {
			t.Errorf("%s = %v, want > 0", name, snap[name])
		}
	}
	if got := snap["cos_link_exchanges_total"]; got != packets {
		t.Errorf("cos_link_exchanges_total = %v, want %d", got, packets)
	}
	// Latency quantiles must be ordered and sane.
	p50, p99 := snap["cos_link_exchange_seconds_p50"], snap["cos_link_exchange_seconds_p99"]
	if p50 <= 0 || p99 < p50 {
		t.Errorf("exchange latency quantiles: p50=%v p99=%v", p50, p99)
	}
}
