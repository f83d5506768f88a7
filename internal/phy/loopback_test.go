package phy

import (
	"bytes"
	"math/rand"
	"testing"

	"cos/internal/channel"
	"cos/internal/ofdm"
)

func randPSDU(rng *rand.Rand, n int) []byte {
	out := make([]byte, n)
	rng.Read(out)
	return out
}

// runLink pushes one packet through a channel at the given actual SNR and
// returns the decode result plus front end.
func runLink(t *testing.T, mode Mode, psdu []byte, ch *channel.TDL, snrDB float64, seed int64) (*TxPacket, *FrontEnd, *DecodeResult) {
	t.Helper()
	tx, err := BuildPacket(TxConfig{Mode: mode}, psdu)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := tx.Samples()
	if err != nil {
		t.Fatal(err)
	}
	h := ch.FrequencyResponse(0)
	nv, err := NoiseVarForActualSNR(h, snrDB)
	if err != nil {
		t.Fatal(err)
	}
	rxSamples := ch.Apply(samples, 0, nv, rand.New(rand.NewSource(seed)))
	fe, err := RunFrontEnd(rxSamples)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := fe.Decode(DecodeConfig{Mode: mode, PSDULen: len(psdu)})
	if err != nil {
		t.Fatal(err)
	}
	return tx, fe, dec
}

func TestLoopbackIdealChannelAllModes(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	flat, err := channel.PositionFlat.New(false)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range Modes() {
		psdu := randPSDU(rng, 200)
		_, _, dec := runLink(t, m, psdu, flat, 40, 92)
		if !bytes.Equal(dec.PSDU, psdu) {
			t.Errorf("%v: ideal-channel loopback corrupted PSDU", m)
		}
	}
}

func TestLoopbackFadingChannelHighSNR(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	for _, pos := range channel.Positions() {
		ch, err := pos.New(false)
		if err != nil {
			t.Fatal(err)
		}
		for _, rate := range []int{6, 24, 54} {
			m, _ := ModeByRate(rate)
			psdu := randPSDU(rng, 500)
			_, _, dec := runLink(t, m, psdu, ch, 38, 94)
			if !bytes.Equal(dec.PSDU, psdu) {
				t.Errorf("%v %v: fading loopback corrupted PSDU", pos, m)
			}
		}
	}
}

func TestLoopbackAtModerateSNR(t *testing.T) {
	// Each mode decodes at a few dB above its adaptation threshold.
	rng := rand.New(rand.NewSource(95))
	ch, err := channel.PositionB.New(false)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range Modes() {
		psdu := randPSDU(rng, 300)
		_, _, dec := runLink(t, m, psdu, ch, m.MinSNRdB+6, 96)
		if !bytes.Equal(dec.PSDU, psdu) {
			t.Errorf("%v: failed at %v dB", m, m.MinSNRdB+6)
		}
	}
}

func TestLoopbackWithErasures(t *testing.T) {
	// Zero a scattered set of grid symbols (silence insertion) and mark
	// them erased: the decoder must still recover the PSDU.
	rng := rand.New(rand.NewSource(97))
	ch, err := channel.PositionB.New(false)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := ModeByRate(24)
	psdu := randPSDU(rng, 400)
	tx, err := BuildPacket(TxConfig{Mode: m}, psdu)
	if err != nil {
		t.Fatal(err)
	}
	erased := make([][]bool, tx.NumSymbols())
	nErased := 0
	for s := range erased {
		erased[s] = make([]bool, ofdm.NumData)
		// Erase two subcarriers per symbol (~4% of symbols).
		for _, d := range []int{11, 37} {
			erased[s][d] = true
			if err := tx.Grid.Set(s, d, 0); err != nil {
				t.Fatal(err)
			}
			nErased++
		}
	}
	samples, err := tx.Samples()
	if err != nil {
		t.Fatal(err)
	}
	h := ch.FrequencyResponse(0)
	nv, err := NoiseVarForActualSNR(h, 20)
	if err != nil {
		t.Fatal(err)
	}
	rxSamples := ch.Apply(samples, 0, nv, rand.New(rand.NewSource(98)))
	fe, err := RunFrontEnd(rxSamples)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := fe.Decode(DecodeConfig{Mode: m, PSDULen: len(psdu), Erased: erased})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec.PSDU, psdu) {
		t.Fatalf("decode failed with %d erased symbols", nErased)
	}
}

func TestErasureDecodingBeatsIgnorantDecoding(t *testing.T) {
	// Decoding silence symbols WITHOUT marking them erased should be worse:
	// the erased positions demap to garbage metrics that mislead the
	// decoder. Run near the mode's threshold so the budget matters.
	rng := rand.New(rand.NewSource(99))
	ch, err := channel.PositionB.New(false)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := ModeByRate(24)
	okMarked, okIgnorant := 0, 0
	const trials = 12
	for trial := 0; trial < trials; trial++ {
		psdu := randPSDU(rng, 400)
		tx, err := BuildPacket(TxConfig{Mode: m}, psdu)
		if err != nil {
			t.Fatal(err)
		}
		erased := make([][]bool, tx.NumSymbols())
		for s := range erased {
			erased[s] = make([]bool, ofdm.NumData)
			for _, d := range []int{5, 17, 29, 41} {
				erased[s][d] = true
				if err := tx.Grid.Set(s, d, 0); err != nil {
					t.Fatal(err)
				}
			}
		}
		samples, _ := tx.Samples()
		h := ch.FrequencyResponse(0)
		nv, _ := NoiseVarForActualSNR(h, m.MinSNRdB+2.5)
		rxSamples := ch.Apply(samples, 0, nv, rand.New(rand.NewSource(100+int64(trial))))
		fe, err := RunFrontEnd(rxSamples)
		if err != nil {
			t.Fatal(err)
		}
		if dec, err := fe.Decode(DecodeConfig{Mode: m, PSDULen: len(psdu), Erased: erased}); err == nil && bytes.Equal(dec.PSDU, psdu) {
			okMarked++
		}
		if dec, err := fe.Decode(DecodeConfig{Mode: m, PSDULen: len(psdu)}); err == nil && bytes.Equal(dec.PSDU, psdu) {
			okIgnorant++
		}
	}
	if okMarked < okIgnorant {
		t.Errorf("erasure-aware decoding (%d/%d) should beat erasure-ignorant (%d/%d)",
			okMarked, trials, okIgnorant, trials)
	}
	if okMarked == 0 {
		t.Error("erasure-aware decoding never succeeded")
	}
}

func TestFrontEndChannelEstimateAccuracy(t *testing.T) {
	ch, err := channel.PositionA.New(false)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := ModeByRate(12)
	psdu := randPSDU(rand.New(rand.NewSource(101)), 100)
	tx, _ := BuildPacket(TxConfig{Mode: m}, psdu)
	samples, _ := tx.Samples()
	h := ch.FrequencyResponse(0)
	nv, _ := NoiseVarForActualSNR(h, 30)
	rx := ch.Apply(samples, 0, nv, rand.New(rand.NewSource(102)))
	fe, err := RunFrontEnd(rx)
	if err != nil {
		t.Fatal(err)
	}
	// Estimated H close to true H on every data subcarrier.
	for d := 0; d < ofdm.NumData; d++ {
		k, _ := ofdm.DataIndex(d)
		bin, _ := ofdm.Bin(k)
		est, err := fe.ChannelAt(d)
		if err != nil {
			t.Fatal(err)
		}
		diff := est - h[bin]
		if reIm := real(diff)*real(diff) + imag(diff)*imag(diff); reIm > 0.05 {
			t.Errorf("subcarrier %d: |H_est - H|^2 = %v", d, reIm)
		}
	}
}

func TestFrontEndNoiseEstimateTracksTruth(t *testing.T) {
	ch, err := channel.PositionFlat.New(false)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := ModeByRate(12)
	psdu := randPSDU(rand.New(rand.NewSource(103)), 600)
	tx, _ := BuildPacket(TxConfig{Mode: m}, psdu)
	samples, _ := tx.Samples()
	h := ch.FrequencyResponse(0)
	for _, snr := range []float64{8, 15, 25} {
		nv, _ := NoiseVarForActualSNR(h, snr)
		rx := ch.Apply(samples, 0, nv, rand.New(rand.NewSource(104)))
		fe, err := RunFrontEnd(rx)
		if err != nil {
			t.Fatal(err)
		}
		truePostFFT := ofdm.NumSubcarriers * nv
		ratio := fe.NoiseVar / truePostFFT
		if ratio < 0.5 || ratio > 2.0 {
			t.Errorf("SNR %v: pilot noise estimate %v vs true %v (ratio %v)",
				snr, fe.NoiseVar, truePostFFT, ratio)
		}
		ratio = fe.LTFNoiseVar / truePostFFT
		if ratio < 0.3 || ratio > 3.0 {
			t.Errorf("SNR %v: LTF noise estimate ratio %v", snr, ratio)
		}
	}
}

func TestMeasuredSNRBelowActualOnSelectiveChannel(t *testing.T) {
	// The NIC's dB-mean estimate must sit below the true arithmetic-mean
	// SNR on a frequency-selective channel — the second SNR-gap source.
	ch, err := channel.PositionA.New(false)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := ModeByRate(12)
	psdu := randPSDU(rand.New(rand.NewSource(105)), 400)
	tx, _ := BuildPacket(TxConfig{Mode: m}, psdu)
	samples, _ := tx.Samples()
	h := ch.FrequencyResponse(0)
	nv, _ := NoiseVarForActualSNR(h, 18)
	rx := ch.Apply(samples, 0, nv, rand.New(rand.NewSource(106)))
	fe, err := RunFrontEnd(rx)
	if err != nil {
		t.Fatal(err)
	}
	measured, err := fe.MeasuredSNRdB()
	if err != nil {
		t.Fatal(err)
	}
	actual, err := ActualSNRdB(h, nv)
	if err != nil {
		t.Fatal(err)
	}
	if measured >= actual {
		t.Errorf("measured SNR %v should be below actual %v on selective channel", measured, actual)
	}
	if actual-measured > 12 {
		t.Errorf("measured SNR gap %v dB implausibly large", actual-measured)
	}
}

func TestRunFrontEndErrors(t *testing.T) {
	if _, err := RunFrontEnd(make([]complex128, 50)); err == nil {
		t.Error("short packet should error")
	}
	if _, err := RunFrontEnd(make([]complex128, ofdm.PreambleLen+ofdm.SymbolLen+3)); err == nil {
		t.Error("partial symbol should error")
	}
}

func TestDecodeConfigValidation(t *testing.T) {
	flat, _ := channel.PositionFlat.New(false)
	m, _ := ModeByRate(12)
	psdu := randPSDU(rand.New(rand.NewSource(107)), 50)
	tx, _ := BuildPacket(TxConfig{Mode: m}, psdu)
	samples, _ := tx.Samples()
	rx := flat.Apply(samples, 0, 1e-6, rand.New(rand.NewSource(108)))
	fe, err := RunFrontEnd(rx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fe.Decode(DecodeConfig{Mode: Mode{}, PSDULen: 50}); err == nil {
		t.Error("invalid mode should error")
	}
	if _, err := fe.Decode(DecodeConfig{Mode: m, PSDULen: -1}); err == nil {
		t.Error("negative PSDU length should error")
	}
	if _, err := fe.Decode(DecodeConfig{Mode: m, PSDULen: 5000}); err == nil {
		t.Error("mismatched PSDU length should error")
	}
	bad := make([][]bool, 1)
	bad[0] = make([]bool, ofdm.NumData)
	if _, err := fe.Decode(DecodeConfig{Mode: m, PSDULen: 50, Erased: bad}); err == nil {
		t.Error("wrong-size erasure mask should error")
	}
}

func TestBuildPacketValidation(t *testing.T) {
	if _, err := BuildPacket(TxConfig{}, []byte{1}); err == nil {
		t.Error("zero-value config should error")
	}
}

func TestScramblerSeedMismatchCorruptsData(t *testing.T) {
	flat, _ := channel.PositionFlat.New(false)
	m, _ := ModeByRate(12)
	psdu := randPSDU(rand.New(rand.NewSource(109)), 50)
	tx, _ := BuildPacket(TxConfig{Mode: m, ScramblerSeed: 0x2A}, psdu)
	samples, _ := tx.Samples()
	rx := flat.Apply(samples, 0, 1e-7, rand.New(rand.NewSource(110)))
	fe, _ := RunFrontEnd(rx)
	dec, err := fe.Decode(DecodeConfig{Mode: m, ScramblerSeed: 0x11, PSDULen: 50})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(dec.PSDU, psdu) {
		t.Error("mismatched scrambler seeds should corrupt the payload")
	}
}

// TestDemapIntoMatchesDecodeHardBits: DemapInto stops at the decoder input
// and returns exactly the hard decisions a full decode reports, for every
// mode, with and without erasures and LLR quantization, on scratches
// reused across packet sizes.
func TestDemapIntoMatchesDecodeHardBits(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	ch, err := channel.PositionC.New(false)
	if err != nil {
		t.Fatal(err)
	}
	var demapScr, decScr RxScratch
	for _, m := range Modes() {
		for _, psduLen := range []int{700, 90} {
			erased := randomMask(rng, m.SymbolsForPSDU(psduLen))
			c := newDiagCase(t, rng, m, ch, 12, psduLen, func(s, d int) bool { return erased[s][d] })
			for _, mask := range [][][]bool{nil, erased} {
				for _, llrBits := range []int{0, 5} {
					cfg := c.cfg
					cfg.Erased, cfg.LLRBits = mask, llrBits
					dec, err := c.fe.DecodeInto(&decScr, cfg)
					if err != nil {
						t.Fatal(err)
					}
					hard, err := c.fe.DemapInto(&demapScr, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(hard, dec.HardCodedBits) {
						t.Errorf("%v, %d bytes, erased %v, LLR bits %d: DemapInto differs from DecodeInto's hard bits", m, psduLen, mask != nil, llrBits)
					}
				}
			}
		}
	}
	c := newDiagCase(t, rng, Modes()[0], ch, 12, 10, nil)
	cfg := c.cfg
	cfg.PSDULen += 500
	if _, err := c.fe.DemapInto(nil, cfg); err == nil {
		t.Error("DemapInto with a mismatched PSDU length should error")
	}
}
