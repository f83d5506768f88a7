package cos_test

// Benchmarks, one per figure of the paper's evaluation plus the ablations
// and the core PHY primitives. Each figure benchmark regenerates that
// figure's data series at a reduced scale (benchScale); run
// cmd/cos-figures at scale 1 for publication-quality sweeps.
//
//	go test -bench=. -benchmem

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	"cos"
	"cos/internal/channel"
	"cos/internal/coding"
	"cos/internal/dsp"
	"cos/internal/experiments"
	"cos/internal/modulation"
	"cos/internal/obs"
	"cos/internal/phy"
)

// benchTraceOut enables TestWriteBenchTraceReport; `make bench-trace`
// points it at BENCH_trace.json.
var benchTraceOut = flag.String("bench-trace-out", "", "write the span/probe overhead report to this JSON file")

// benchScale shrinks experiment sample sizes so the full benchmark suite
// completes in minutes; shapes (who wins, where crossovers fall) persist.
const benchScale = 0.05

func runFigureWorkers(b *testing.B, id string, workers int) {
	b.Helper()
	opts := experiments.RunOptions{Scale: benchScale, Workers: workers}
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(context.Background(), id, opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Series) == 0 {
			b.Fatalf("%s: empty result", id)
		}
	}
}

func runFigure(b *testing.B, id string) {
	runFigureWorkers(b, id, 1)
}

// --- Parallel engine -----------------------------------------------------

// benchmarkParallel contrasts the serial fast path (workers=1) against the
// worker pool at 2, 4 and GOMAXPROCS workers on the same figure; the output
// is bit-identical across all of them (TestParallelMatchesSerial* assert
// this), so the benchmark isolates pure scheduling overhead/speedup.
// cos-bench's figures workload times a whole figure locally
// (experiments.figure_local_s) and over a fleet.
func benchmarkParallel(b *testing.B, id string) {
	counts := []int{1, 2, 4, runtime.GOMAXPROCS(0)}
	for _, w := range counts {
		b.Run(fmtWorkers(w), func(b *testing.B) { runFigureWorkers(b, id, w) })
	}
}

func fmtWorkers(w int) string {
	name := "workers="
	if w >= 10 {
		name += string(rune('0'+w/10)) + string(rune('0'+w%10))
	} else {
		name += string(rune('0' + w))
	}
	return name
}

func BenchmarkParallelFig3(b *testing.B)   { benchmarkParallel(b, "fig3") }
func BenchmarkParallelFig10c(b *testing.B) { benchmarkParallel(b, "fig10c") }
func BenchmarkParallelFig2(b *testing.B)   { benchmarkParallel(b, "fig2") }

// --- Paper figures -------------------------------------------------------

func BenchmarkFig2SNRGap(b *testing.B)         { runFigure(b, "fig2") }
func BenchmarkFig3DecoderBER(b *testing.B)     { runFigure(b, "fig3") }
func BenchmarkFig5EVM(b *testing.B)            { runFigure(b, "fig5") }
func BenchmarkFig6ErrorPattern(b *testing.B)   { runFigure(b, "fig6") }
func BenchmarkFig7Temporal(b *testing.B)       { runFigure(b, "fig7") }
func BenchmarkFig9Capacity(b *testing.B)       { runFigure(b, "fig9") }
func BenchmarkFig10aMagnitudes(b *testing.B)   { runFigure(b, "fig10a") }
func BenchmarkFig10bThreshold(b *testing.B)    { runFigure(b, "fig10b") }
func BenchmarkFig10cAccuracy(b *testing.B)     { runFigure(b, "fig10c") }
func BenchmarkFig10dInterference(b *testing.B) { runFigure(b, "fig10d") }

// --- Ablations -----------------------------------------------------------

func BenchmarkAblationEVD(b *testing.B)       { runFigure(b, "ablation-evd") }
func BenchmarkAblationPlacement(b *testing.B) { runFigure(b, "ablation-placement") }
func BenchmarkAblationThreshold(b *testing.B) { runFigure(b, "ablation-threshold") }
func BenchmarkControlAccuracy(b *testing.B)   { runFigure(b, "accuracy") }

// --- Core primitives -----------------------------------------------------

func BenchmarkFFT64(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := make([]complex128, 64)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dsp.FFTInPlace(x); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkViterbiDecode1KB decodes 1 KB of data bits from soft metrics
// with 5% erasures, the EVD input cos-bench's kernel uses. Hard +-1
// metrics would make most add-compare-selects ties and hide the cost of
// data-dependent selection. The decoded bits are checked inside the timed
// loop, so a fast wrong decoder cannot pass.
func BenchmarkViterbiDecode1KB(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	data := make([]byte, 8192+coding.TailBits)
	for i := range data[:8192] {
		data[i] = byte(rng.Intn(2))
	}
	coded, err := coding.ConvEncode(data)
	if err != nil {
		b.Fatal(err)
	}
	metrics := make([]float64, len(coded))
	for i, c := range coded {
		if rng.Float64() < 0.05 {
			continue // erased: zero metric
		}
		metrics[i] = 2*float64(c) - 1 + 0.4*rng.NormFloat64()
	}
	dec := coding.Viterbi{Terminated: true}
	var s coding.ViterbiScratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := dec.DecodeInto(&s, metrics)
		if err != nil {
			b.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			b.Fatal("decoded bits differ from the encoded ones")
		}
	}
}

func BenchmarkSoftDemap64QAM(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	pts := make([]complex128, 48)
	for i := range pts {
		pts[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	metrics := make([]float64, modulation.QAM64.BitsPerSymbol())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, y := range pts {
			if err := modulation.QAM64.SoftDemapInto(metrics, y, 0.05); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkTxChain1KB(b *testing.B) {
	mode, err := phy.ModeByRate(24)
	if err != nil {
		b.Fatal(err)
	}
	psdu := make([]byte, 1024)
	rand.New(rand.NewSource(4)).Read(psdu)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pkt, err := phy.BuildPacket(phy.TxConfig{Mode: mode}, psdu)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := pkt.Samples(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRxChain1KB(b *testing.B) {
	mode, err := phy.ModeByRate(24)
	if err != nil {
		b.Fatal(err)
	}
	psdu := make([]byte, 1024)
	rng := rand.New(rand.NewSource(5))
	rng.Read(psdu)
	pkt, err := phy.BuildPacket(phy.TxConfig{Mode: mode}, psdu)
	if err != nil {
		b.Fatal(err)
	}
	samples, err := pkt.Samples()
	if err != nil {
		b.Fatal(err)
	}
	ch, err := channel.PositionB.New(false)
	if err != nil {
		b.Fatal(err)
	}
	h := ch.FrequencyResponse(0)
	nv, err := phy.NoiseVarForActualSNR(h, 20)
	if err != nil {
		b.Fatal(err)
	}
	rx := ch.Apply(samples, 0, nv, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fe, err := phy.RunFrontEnd(rx)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := fe.Decode(phy.DecodeConfig{Mode: mode, PSDULen: len(psdu)}); err != nil {
			b.Fatal(err)
		}
	}
}

func runLinkExchange(b *testing.B, opts ...cos.Option) {
	b.Helper()
	link, err := cos.NewLink(append([]cos.Option{cos.WithSNR(20), cos.WithSeed(6)}, opts...)...)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, 1024)
	if _, err := link.Send(data, nil); err != nil {
		b.Fatal(err)
	}
	ctrl := make([]byte, 24)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Follow the adaptive budget: it legitimately dips when the SNR
		// report visits a 3/4-coded band.
		maxBits, err := link.MaxControlBits(len(data))
		if err != nil {
			b.Fatal(err)
		}
		n := len(ctrl)
		if n > maxBits {
			n = maxBits / 4 * 4
		}
		if _, err := link.Send(data, ctrl[:n]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLinkExchange(b *testing.B) { runLinkExchange(b) }

// BenchmarkLinkExchangeInstrumented adds the heaviest observability setup a
// session can have — an isolated registry plus an attached observer — on
// top of the always-on pipeline metrics. Comparing against
// BenchmarkLinkExchange bounds the marginal cost of the hook itself.
// The <2% observer budget is enforced by `make bench-events`, which times
// the same loop with and without an observer.
func BenchmarkLinkExchangeInstrumented(b *testing.B) {
	var observed int
	runLinkExchange(b,
		cos.WithMetricsRegistry(cos.NewMetricsRegistry()),
		cos.WithObserver(func(ex *cos.Exchange) { observed++ }),
	)
	if observed == 0 {
		b.Fatal("observer never fired")
	}
}

// BenchmarkLinkExchangeProbed64 runs the exchange with the flight
// recorder's sampled probe at the documented operating point (every 64th
// packet); the amortized overhead against BenchmarkLinkExchange is what
// the BENCH_trace.json budget bounds.
func BenchmarkLinkExchangeProbed64(b *testing.B) {
	runLinkExchange(b, cos.WithProbe(64))
}

// BenchmarkLinkExchangeProbed1 probes every packet — the worst case, for
// sizing what a probe itself costs (it re-demodulates the whole packet).
func BenchmarkLinkExchangeProbed1(b *testing.B) {
	runLinkExchange(b, cos.WithProbe(1))
}

// TestWriteBenchTraceReport regenerates BENCH_trace.json (via `make
// bench-trace`): it times the exchange loop with spans only (the always-on
// flight-recorder path), with a probe every 64th packet, and with a probe
// on every packet, then records the ratios. The acceptance budget is
// probed64/base <= 1.02: sampled probes must stay within 2% of the
// span-only pipeline. It skips itself unless -bench-trace-out is set so
// `go test ./...` stays fast.
func TestWriteBenchTraceReport(t *testing.T) {
	if *benchTraceOut == "" {
		t.Skip("set -bench-trace-out to write the report")
	}
	const packets = 400
	timedSession := func(opts ...cos.Option) float64 {
		all := append([]cos.Option{cos.WithSNR(20), cos.WithSeed(6)}, opts...)
		best := 0.0
		for rep := 0; rep < 3; rep++ {
			link, err := cos.NewLink(all...)
			if err != nil {
				t.Fatal(err)
			}
			data := make([]byte, 1024)
			ctrl := make([]byte, 24)
			start := time.Now()
			for i := 0; i < packets; i++ {
				maxBits, err := link.MaxControlBits(len(data))
				if err != nil {
					t.Fatal(err)
				}
				n := len(ctrl)
				if n > maxBits {
					n = maxBits / 4 * 4
				}
				if _, err := link.Send(data, ctrl[:n]); err != nil {
					t.Fatal(err)
				}
			}
			sec := time.Since(start).Seconds()
			if best == 0 || sec < best {
				best = sec
			}
		}
		return best
	}
	base := timedSession()
	probed64 := timedSession(cos.WithProbe(64))
	probed1 := timedSession(cos.WithProbe(1))
	report := struct {
		GeneratedBy     string  `json:"generated_by"`
		Packets         int     `json:"packets"`
		Reps            int     `json:"reps"`
		BaseSeconds     float64 `json:"base_seconds"`
		Probed64Seconds float64 `json:"probed64_seconds"`
		Probed1Seconds  float64 `json:"probed1_seconds"`
		Probed64Ratio   float64 `json:"probed64_ratio"`
		Probed1Ratio    float64 `json:"probed1_ratio"`
		BudgetRatio     float64 `json:"budget_ratio"`
		WithinBudget    bool    `json:"within_budget"`
		Methodology     string  `json:"methodology"`
	}{
		GeneratedBy: "make bench-trace",
		Packets:     packets, Reps: 3,
		BaseSeconds: base, Probed64Seconds: probed64, Probed1Seconds: probed1,
		Probed64Ratio: probed64 / base, Probed1Ratio: probed1 / base,
		BudgetRatio: 1.02, WithinBudget: probed64/base <= 1.02,
		Methodology: "Each configuration sends 400 packets (24 control bits, " +
			"adaptive budget) on a fresh seed-6 link, three repetitions, best-of-3 " +
			"wall clock — the same exchange loop as BenchmarkLinkExchange. base " +
			"carries the always-on span layer; probed64 adds cos.WithProbe(64), " +
			"the documented sampling floor; probed1 probes every packet to size the " +
			"raw probe cost. The acceptance budget bounds probed64_ratio at 1.02 " +
			"(sampled probes within 2% of the span-only pipeline); probed1 is " +
			"informational and expected well above it, since every probe " +
			"re-demodulates the packet against the transmitted grid.",
	}
	if !report.WithinBudget {
		t.Errorf("probed64/base = %.4f exceeds the 1.02 budget", report.Probed64Ratio)
	}
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(*benchTraceOut, append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (probed64 ratio %.4f, probed1 ratio %.4f)",
		*benchTraceOut, report.Probed64Ratio, report.Probed1Ratio)
}

// BenchmarkObsCounterHot measures the per-update cost of the metric
// primitive the pipeline leans on hardest (Counter.Inc under contention).
func BenchmarkObsCounterHot(b *testing.B) {
	c := obs.NewRegistry().Counter("bench_hot_total", "benchmark counter")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkAblationQuantization(b *testing.B) { runFigure(b, "ablation-quantization") }
