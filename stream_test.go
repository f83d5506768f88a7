package cos

import (
	"math/rand"
	"testing"
)

// streamSnapshot runs SendStream against an isolated metrics registry and
// returns the result plus the registry snapshot, so tests can assert exact
// stream-counter values without cross-talk from other links.
func streamSnapshot(t *testing.T, payloadBits int, opts ...Option) (*StreamResult, map[string]float64) {
	t.Helper()
	reg := NewMetricsRegistry()
	opts = append(opts, WithControlFraming(), WithMetricsRegistry(reg))
	link, err := NewLink(opts...)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	data := make([]byte, 512)
	rng.Read(data)
	payload := randBits(rng, payloadBits)
	res, err := link.SendStream(payload, data)
	if err != nil {
		t.Fatal(err)
	}
	return res, reg.Snapshot()
}

func TestSendStreamStallAbort(t *testing.T) {
	// A zero silence budget starves every fragment: the stream pushes
	// data-only packets hoping the budget recovers (it cannot, the budget
	// is pinned) and gives up after maxStreamStalls of them.
	res, snap := streamSnapshot(t, 40, WithSNR(20), WithSeed(21), WithSilenceBudget(0))
	if res.Outcome == StreamDelivered {
		t.Fatal("stream delivered with a zero budget")
	}
	if res.Outcome != StreamStallAborted {
		t.Errorf("Outcome = %v, want %v", res.Outcome, StreamStallAborted)
	}
	if res.FragmentsSent != 0 {
		t.Errorf("fragments sent with a zero budget: %d", res.FragmentsSent)
	}
	if res.PacketsUsed != maxStreamStalls {
		t.Errorf("packets used = %d, want %d stalled packets", res.PacketsUsed, maxStreamStalls)
	}
	for name, want := range map[string]float64{
		"cos_stream_sends_total":           1,
		"cos_stream_stall_aborts_total":    1,
		"cos_stream_stalled_packets_total": maxStreamStalls,
		"cos_stream_fragment_aborts_total": 0,
		"cos_stream_delivered_total":       0,
	} {
		if snap[name] != want {
			t.Errorf("%s = %v, want %v", name, snap[name], want)
		}
	}
}

func TestSendStreamFragmentAbort(t *testing.T) {
	// At 4 dB the CRC framing rejects corrupted fragments; the stream
	// aborts on the first unverified one instead of reassembling garbage.
	res, snap := streamSnapshot(t, 120, WithSNR(4), WithSeed(22), WithSilenceBudget(24), WithFixedRate(6))
	if res.Outcome == StreamDelivered {
		t.Fatal("stream delivered through a 4 dB channel")
	}
	if res.Outcome != StreamFragmentLost && res.Outcome != StreamHeaderCorrupted {
		t.Errorf("Outcome = %v, want a fragment abort", res.Outcome)
	}
	if snap["cos_stream_fragment_aborts_total"] != 1 {
		t.Errorf("cos_stream_fragment_aborts_total = %v, want 1", snap["cos_stream_fragment_aborts_total"])
	}
	if snap["cos_stream_stall_aborts_total"] != 0 {
		t.Errorf("cos_stream_stall_aborts_total = %v, want 0", snap["cos_stream_stall_aborts_total"])
	}
	if got := snap["cos_stream_fragments_sent_total"]; got != float64(res.FragmentsSent) || got < 1 {
		t.Errorf("cos_stream_fragments_sent_total = %v, want %d (>=1)", got, res.FragmentsSent)
	}
	if got := snap["cos_stream_fragments_delivered_total"]; got != float64(res.FragmentsDelivered) {
		t.Errorf("cos_stream_fragments_delivered_total = %v, want %d", got, res.FragmentsDelivered)
	}
}

func TestSendStreamDeliveredMetrics(t *testing.T) {
	// The happy path from TestSendStreamDeliversLongControl, re-checked
	// against the stream counters.
	res, snap := streamSnapshot(t, 180, WithSNR(19), WithSeed(91), WithFixedRate(24))
	if res.Outcome != StreamDelivered {
		t.Fatalf("stream not delivered: %+v", res)
	}
	for name, want := range map[string]float64{
		"cos_stream_sends_total":               1,
		"cos_stream_delivered_total":           1,
		"cos_stream_stall_aborts_total":        0,
		"cos_stream_fragment_aborts_total":     0,
		"cos_stream_fragments_sent_total":      float64(res.FragmentsSent),
		"cos_stream_fragments_delivered_total": float64(res.FragmentsDelivered),
	} {
		if snap[name] != want {
			t.Errorf("%s = %v, want %v", name, snap[name], want)
		}
	}
	if snap["cos_link_exchanges_total"] != float64(res.PacketsUsed) {
		t.Errorf("cos_link_exchanges_total = %v, want %d packets",
			snap["cos_link_exchanges_total"], res.PacketsUsed)
	}
}
