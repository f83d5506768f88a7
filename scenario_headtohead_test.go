package cos_test

// Head-to-head scenario test: the paper's CoS silence embedding against
// the WiPad-style OFDM-padding embedding on the same indoor channel, and
// the indoor TDL channel against the hybrid BSC/PEC outdoor channel under
// the same embedding.

import (
	"math/rand"
	"testing"

	"cos"
)

// TestScenarioHeadToHead drives the same fixed-seed send schedule through
// four worlds — the default CoS-silence/indoor-TDL pairing, the
// OFDM-padding embedding on the same indoor channel, and the CoS-silence
// embedding over the hybrid BSC/PEC outdoor channel at two erasure
// settings — and checks sanity floors rather than racing the worlds:
// every world must move packets, the padding embedding must spend zero
// silences, and the silence embeddings must spend a nonzero budget.
func TestScenarioHeadToHead(t *testing.T) {
	const packets = 40
	const ctrlBits, k = 16, 4
	const snr = 22.0

	worlds := []struct {
		name      string
		embedding string
		opts      []cos.Option
	}{
		{"default", "cos-silence",
			[]cos.Option{cos.WithSeed(41), cos.WithSNR(snr)}},
		{"ofdm-padding", "ofdm-padding",
			[]cos.Option{cos.WithScenario("ofdm-padding"), cos.WithSeed(41), cos.WithSNR(snr)}},
		{"hybrid-bscpec", "cos-silence",
			[]cos.Option{cos.WithScenario("hybrid-bscpec"), cos.WithSeed(41), cos.WithSNR(snr)}},
		{"hybrid-bscpec:0.3,0.1,25", "cos-silence",
			[]cos.Option{cos.WithScenario("hybrid-bscpec", 0.3, 0.1, 25), cos.WithSeed(41), cos.WithSNR(snr)}},
	}

	for _, w := range worlds {
		link, err := cos.NewLink(w.opts...)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		rng := rand.New(rand.NewSource(977))
		var dataOK, silences int
		for i := 0; i < packets; i++ {
			data := make([]byte, 256)
			rng.Read(data)
			maxBits, err := link.MaxControlBits(len(data))
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			n := ctrlBits
			if n > maxBits {
				n = maxBits / k * k
			}
			ctrl := make([]byte, n)
			for j := range ctrl {
				ctrl[j] = byte(rng.Intn(2))
			}
			ex, err := link.Send(data, ctrl)
			if err != nil {
				t.Fatalf("%s packet %d: %v", w.name, i, err)
			}
			if ex.DataOK {
				dataOK++
			}
			silences += ex.SilencesInserted
		}
		if dataOK == 0 {
			t.Errorf("%s delivered no packets", w.name)
		}
		if w.embedding == "ofdm-padding" && silences != 0 {
			t.Errorf("%s inserted silences (%v/packet); padding must not", w.name, float64(silences)/packets)
		}
		if w.embedding == "cos-silence" && silences == 0 {
			t.Errorf("%s inserted no silences; the CoS embedding is not engaging", w.name)
		}
	}
}
