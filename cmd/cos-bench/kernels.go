package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"time"

	"cos/internal/channel"
	"cos/internal/coding"
	"cos/internal/dsp"
	"cos/internal/modulation"
	"cos/internal/phy"
)

// kernelBatches batches of a kernel are timed, each long enough (about
// kernelBatch) that the clock's resolution does not matter; a kernel's
// time per call is the median over its batches.
const (
	kernelBatches = 15
	kernelBatch   = 20 * time.Millisecond
)

// kernel is one timed public function of a simulation package. call runs
// it once; check verifies the last call's output.
type kernel struct {
	metric string
	unit   time.Duration // report in ns or us
	call   func() error
	check  func() error
}

// runKernels times the kernels on inputs generated from seed and returns
// their per-layer metrics. Each kernel's output check counts in o.
func runKernels(ctx context.Context, seed int64, tr *tracer, o *outcome) (map[string]float64, error) {
	ks, steps, err := buildKernels(seed)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, k := range ks {
		// Size a batch from one timed call, then time the batches.
		t0 := time.Now()
		if err := k.call(); err != nil {
			return nil, fmt.Errorf("%s: %w", k.metric, err)
		}
		per := max(1, int(kernelBatch/max(time.Since(t0), time.Nanosecond)))
		var perCall []float64
		for b := 0; b < kernelBatches; b++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			t0 := time.Now()
			for i := 0; i < per; i++ {
				if err := k.call(); err != nil {
					return nil, fmt.Errorf("%s: %w", k.metric, err)
				}
			}
			t1 := time.Now()
			tr.record(0, 0, "kernel."+k.metric, fmt.Sprintf("batch%d", b), t0, t1)
			perCall = append(perCall, float64(t1.Sub(t0))/float64(per)/float64(k.unit))
		}
		o.attempted++
		if err := k.check(); err != nil {
			o.fail("kernel %s: %v", k.metric, err)
		}
		out[k.metric] = median(perCall)
	}
	out["coding.viterbi_ns_per_state_step"] = out["coding.viterbi_1kb_us"] * 1e3 / float64(64*steps)
	return out, nil
}

// buildKernels prepares every kernel's inputs and scratch. steps is the
// Viterbi trellis length, for the per-state-step cost.
func buildKernels(seed int64) ([]kernel, int, error) {
	rng := rngFor(seed, streamKernels)
	mode, err := phy.ModeByRate(24)
	if err != nil {
		return nil, 0, err
	}

	// Viterbi: 1 KB of data bits plus the tail, rate-1/2 soft metrics at a
	// comfortable SNR, 5% of them zeroed as erasures (the EVD input).
	data := make([]byte, 8192+coding.TailBits)
	for i := range data[:8192] {
		data[i] = byte(rng.Intn(2))
	}
	coded, err := coding.ConvEncode(data)
	if err != nil {
		return nil, 0, err
	}
	metrics := make([]float64, len(coded))
	for i, b := range coded {
		if rng.Float64() < 0.05 {
			continue // erased: zero metric
		}
		metrics[i] = 2*float64(b) - 1 + 0.4*rng.NormFloat64()
	}
	dec := coding.Viterbi{Terminated: true}
	var vs coding.ViterbiScratch
	var decoded []byte
	viterbi := kernel{
		metric: "coding.viterbi_1kb_us", unit: time.Microsecond,
		call: func() (err error) { decoded, err = dec.DecodeInto(&vs, metrics); return err },
		check: func() error {
			if !bytes.Equal(decoded[:8192], data[:8192]) {
				return fmt.Errorf("decoded bits differ from the encoded ones")
			}
			return nil
		},
	}

	// PHY transmit and receive chains for a 1 KB PSDU at 24 Mb/s through
	// position B at 20 dB.
	psdu := make([]byte, 1024)
	rng.Read(psdu)
	var txs phy.TxScratch
	var samples []complex128
	tx := kernel{
		metric: "phy.tx_chain_1kb_us", unit: time.Microsecond,
		call: func() error {
			pkt, err := phy.BuildPacketInto(&txs, phy.TxConfig{Mode: mode}, psdu)
			if err != nil {
				return err
			}
			samples, err = pkt.SamplesInto(samples[:0])
			return err
		},
		check: func() error {
			if len(samples) == 0 {
				return fmt.Errorf("no samples")
			}
			return nil
		},
	}
	if err := tx.call(); err != nil {
		return nil, 0, err
	}
	clean := append([]complex128(nil), samples...)
	tdl, err := channel.PositionB.New(false)
	if err != nil {
		return nil, 0, err
	}
	nv, err := phy.NoiseVarForActualSNR(tdl.FrequencyResponse(0), 20)
	if err != nil {
		return nil, 0, err
	}
	noise := rand.New(rand.NewSource(derive(seed, streamKernels, 1)))
	received := tdl.Apply(clean, 0, nv, noise)
	var rxs phy.RxScratch
	var got []byte
	rx := kernel{
		metric: "phy.rx_chain_1kb_us", unit: time.Microsecond,
		call: func() error {
			fe, err := phy.RunFrontEndInto(&rxs, received)
			if err != nil {
				return err
			}
			res, err := fe.DecodeInto(&rxs, phy.DecodeConfig{Mode: mode, PSDULen: len(psdu)})
			if err != nil {
				return err
			}
			got = res.PSDU
			return nil
		},
		check: func() error {
			if !bytes.Equal(got, psdu) {
				return fmt.Errorf("decoded PSDU differs at 20 dB")
			}
			return nil
		},
	}

	// Channel: the TDL taps at t=0, convolution and AWGN over the frame.
	var taps, chOut []complex128
	tdlApply := kernel{
		metric: "channel.tdl_apply_us", unit: time.Microsecond,
		call: func() error {
			taps = tdl.TapsInto(taps[:0], 0)
			chOut = channel.ApplyTo(chOut[:0], clean, taps, nv, noise)
			return nil
		},
		check: func() error {
			if len(chOut) < len(clean) {
				return fmt.Errorf("channel output shorter than its input")
			}
			return nil
		},
	}

	// FFT of one 64-point OFDM symbol.
	sym := make([]complex128, 64)
	for i := range sym {
		sym[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	fftOut := make([]complex128, 64)
	fft := kernel{
		metric: "dsp.fft64_ns", unit: time.Nanosecond,
		call: func() error { return dsp.FFTInto(fftOut, sym) },
		check: func() error {
			// Against the DFT's definition, bin by bin.
			for k := range fftOut {
				var want complex128
				for n, x := range sym {
					want += x * cmplx.Exp(complex(0, -2*math.Pi*float64(k*n)/64))
				}
				if cmplx.Abs(fftOut[k]-want) > 1e-9*(1+cmplx.Abs(want)) {
					return fmt.Errorf("bin %d is %v, the DFT gives %v", k, fftOut[k], want)
				}
			}
			return nil
		},
	}

	// Soft demapping of one 64-QAM point.
	pts := make([]complex128, 48)
	for i := range pts {
		pts[i] = complex(rng.NormFloat64(), rng.NormFloat64()) * 0.7
	}
	llr := make([]float64, 6)
	next := 0
	demap := kernel{
		metric: "modulation.softdemap64_ns", unit: time.Nanosecond,
		call: func() error {
			next = (next + 1) % len(pts)
			return modulation.QAM64.SoftDemapInto(llr, pts[next], 0.05)
		},
		check: func() error {
			for _, v := range llr {
				if v != v {
					return fmt.Errorf("NaN metric")
				}
			}
			return nil
		},
	}
	return []kernel{viterbi, tx, rx, tdlApply, fft, demap}, len(metrics) / 2, nil
}
