package cos_test

// Byte-equality goldens for the staged TX/Channel/RX pipeline refactor.
//
// TestPipelineGolden drives fixed-seed Link.Send and Link.SendStream
// sequences over a spread of configurations, serializes every
// deterministic Exchange field into a transcript, and compares its SHA-256
// against testdata/pipeline_golden.json. The golden file was captured on
// the pre-refactor monolithic Link.Send, so a green run proves the node
// pipeline produces bit-identical outputs (samples, detection, decoding,
// feedback, rate adaptation) for the same seeds.
//
// Wall-clock fields (StageNS) are excluded: they are the only
// non-deterministic part of an Exchange.
//
// Regenerate (only when behaviour is intentionally changed) with:
//
//	go test -run TestPipelineGolden -golden-update .

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"cos"
)

var goldenUpdate = flag.Bool("golden-update", false, "rewrite testdata/pipeline_golden.json from the current implementation")

const goldenPath = "testdata/pipeline_golden.json"

// writeExchange appends every deterministic field of an exchange to the
// transcript. %.17g round-trips float64 exactly.
func writeExchange(w io.Writer, ex *cos.Exchange) {
	fmt.Fprintf(w, "seq=%d bytes=%d rate=%d ok=%t data=%x cs=%x cr=%x cok=%t cver=%t cpay=%x sil=%d scs=%v det=%+v msnr=%.17g asnr=%.17g t=%.17g\n",
		ex.Seq, ex.DataBytes, ex.Mode.RateMbps, ex.DataOK, ex.Data,
		ex.ControlSent, ex.ControlReceived, ex.ControlOK, ex.ControlVerified,
		ex.ControlPayload, ex.SilencesInserted, ex.ControlSubcarriers,
		ex.Detection, ex.MeasuredSNRdB, ex.ActualSNRdB, ex.Time)
	if p := ex.Probe; p != nil {
		fmt.Fprintf(w, "probe seq=%d nsym=%d evm=%.12g dvec=%.12g secnt=%v ssym=%v sep=%v eras=%v dibe=%d dib=%d scs=%v th=%.12g er=%.12g nv=%.17g\n",
			p.Seq, p.NumSymbols, p.EVM, p.ErrorVectors, p.SubcarrierErrorCounts,
			p.SubcarrierSymbols, p.SymbolErrorPositions, p.ErasurePositions,
			p.DecoderInputBitErrors, p.DecoderInputBits, p.ControlSubcarriers,
			p.DetectorThresholds, p.DetectorEnergyRatios, p.NoiseVar)
	}
}

// driveSends pushes packets through the link, following the adaptive
// budget the way cmd/cos-sim does: ask MaxControlBits, clamp the wanted
// control size into it (multiple of k), and send.
func driveSends(t *testing.T, w io.Writer, link *cos.Link, packets, ctrlBits, k int, rng *rand.Rand) {
	t.Helper()
	for i := 0; i < packets; i++ {
		data := make([]byte, 256)
		rng.Read(data)
		maxBits, err := link.MaxControlBits(len(data))
		if err != nil {
			t.Fatal(err)
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
			t.Fatal(err)
		}
		writeExchange(w, ex)
	}
}

// goldenScenarios is the configuration spread the goldens pin down. Every
// option axis the refactor touches appears at least once: adaptive and
// fixed rate, fixed and adaptive budget, framing, explicit feedback,
// mobility, interference, probes, CoS disabled, loss-heavy low SNR, and
// multi-packet streams.
func goldenScenarios() map[string]func(t *testing.T, w io.Writer) {
	return map[string]func(t *testing.T, w io.Writer){
		"default-adaptive": func(t *testing.T, w io.Writer) {
			link, err := cos.NewLink(cos.WithSeed(3), cos.WithSNR(20))
			if err != nil {
				t.Fatal(err)
			}
			driveSends(t, w, link, 40, 24, 4, rand.New(rand.NewSource(100)))
		},
		"position-a-18db": func(t *testing.T, w io.Writer) {
			link, err := cos.NewLink(cos.WithPosition(cos.PositionA), cos.WithSeed(7), cos.WithSNR(18))
			if err != nil {
				t.Fatal(err)
			}
			driveSends(t, w, link, 40, 16, 4, rand.New(rand.NewSource(101)))
		},
		"fixed-rate-fixed-budget": func(t *testing.T, w io.Writer) {
			link, err := cos.NewLink(cos.WithFixedRate(24), cos.WithSilenceBudget(6),
				cos.WithSeed(5), cos.WithSNR(22))
			if err != nil {
				t.Fatal(err)
			}
			driveSends(t, w, link, 40, 20, 4, rand.New(rand.NewSource(102)))
		},
		"framing": func(t *testing.T, w io.Writer) {
			link, err := cos.NewLink(cos.WithControlFraming(), cos.WithSeed(9), cos.WithSNR(20))
			if err != nil {
				t.Fatal(err)
			}
			driveSends(t, w, link, 40, 24, 1, rand.New(rand.NewSource(103)))
		},
		"explicit-feedback": func(t *testing.T, w io.Writer) {
			link, err := cos.NewLink(cos.WithExplicitFeedback(), cos.WithSeed(11), cos.WithSNR(20))
			if err != nil {
				t.Fatal(err)
			}
			driveSends(t, w, link, 40, 16, 4, rand.New(rand.NewSource(104)))
		},
		"mobile-interference": func(t *testing.T, w io.Writer) {
			link, err := cos.NewLink(cos.WithMobile(), cos.WithScenario("pulse", 2.0, 40, 0.1),
				cos.WithSeed(13), cos.WithSNR(25), cos.WithPacketInterval(2e-3))
			if err != nil {
				t.Fatal(err)
			}
			driveSends(t, w, link, 40, 8, 4, rand.New(rand.NewSource(105)))
		},
		"no-cos": func(t *testing.T, w io.Writer) {
			link, err := cos.NewLink(cos.WithoutCoS(), cos.WithSeed(4), cos.WithSNR(15))
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(106))
			for i := 0; i < 30; i++ {
				data := make([]byte, 300)
				rng.Read(data)
				ex, err := link.Send(data, nil)
				if err != nil {
					t.Fatal(err)
				}
				writeExchange(w, ex)
			}
		},
		"low-snr-losses": func(t *testing.T, w io.Writer) {
			link, err := cos.NewLink(cos.WithSNR(6), cos.WithSeed(8))
			if err != nil {
				t.Fatal(err)
			}
			driveSends(t, w, link, 60, 8, 4, rand.New(rand.NewSource(107)))
		},
		"probed": func(t *testing.T, w io.Writer) {
			link, err := cos.NewLink(cos.WithProbe(8), cos.WithSeed(17), cos.WithSNR(20))
			if err != nil {
				t.Fatal(err)
			}
			driveSends(t, w, link, 24, 16, 4, rand.New(rand.NewSource(108)))
		},
		"stream": func(t *testing.T, w io.Writer) {
			link, err := cos.NewLink(cos.WithControlFraming(), cos.WithSeed(21), cos.WithSNR(20),
				cos.WithObserver(func(ex *cos.Exchange) { writeExchange(w, ex) }))
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(109))
			data := make([]byte, 256)
			rng.Read(data)
			for i := 0; i < 4; i++ {
				payload := make([]byte, 120)
				for j := range payload {
					payload[j] = byte(rng.Intn(2))
				}
				res, err := link.SendStream(payload, data)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(w, "stream outcome=%v delivered=%t payload=%x pkts=%d fs=%d fd=%d\n",
					res.Outcome, res.Outcome == cos.StreamDelivered, res.Payload, res.PacketsUsed,
					res.FragmentsSent, res.FragmentsDelivered)
			}
		},
	}
}

func TestPipelineGolden(t *testing.T) {
	if testing.Short() && !*goldenUpdate {
		// Each scenario is a full PHY simulation; the suite costs a few
		// seconds. make ci runs it explicitly (non-short).
		t.Skip("skipping golden transcripts in -short mode")
	}
	scenarios := goldenScenarios()
	got := make(map[string]string, len(scenarios))
	names := make([]string, 0, len(scenarios))
	for name := range scenarios {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		run := scenarios[name]
		t.Run(name, func(t *testing.T) {
			h := sha256.New()
			run(t, h)
			got[name] = hex.EncodeToString(h.Sum(nil))
		})
	}
	if *goldenUpdate {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", goldenPath)
		return
	}
	blob, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read goldens (run with -golden-update to create): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if want[name] == "" {
			t.Errorf("%s: no golden recorded", name)
			continue
		}
		if got[name] != want[name] {
			t.Errorf("%s: transcript hash %s differs from golden %s", name, got[name], want[name])
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("golden %q has no scenario", name)
		}
	}
}
