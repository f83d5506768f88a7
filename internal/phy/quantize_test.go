package phy

import (
	"bytes"
	"math/rand"
	"testing"

	"cos/internal/channel"
)

func TestQuantizeMetricsBasics(t *testing.T) {
	in := []float64{1, -1, 0, 0.5, -3, 100}
	out := append([]float64(nil), in...)
	if _, err := QuantizeMetrics(out, 4, nil); err != nil {
		t.Fatal(err)
	}
	if out[2] != 0 {
		t.Error("erasure (zero metric) must survive quantization as zero")
	}
	// Signs preserved.
	for i := range in {
		if in[i] > 0 && out[i] < 0 || in[i] < 0 && out[i] > 0 {
			t.Errorf("sign flipped at %d: %v -> %v", i, in[i], out[i])
		}
	}
	// Clipping: the huge value saturates.
	if out[5] <= 0 || out[5] > 10*out[0] {
		t.Errorf("clipping wrong: %v", out)
	}
	if _, err := QuantizeMetrics(in, 1, nil); err == nil {
		t.Error("1-bit width should error")
	}
	if _, err := QuantizeMetrics(in, 17, nil); err == nil {
		t.Error("17-bit width should error")
	}
	// All-erased input stays all zero.
	z := make([]float64, 8)
	if _, err := QuantizeMetrics(z, 4, nil); err != nil {
		t.Fatal(err)
	}
	for _, v := range z {
		if v != 0 {
			t.Error("all-zero input should quantize to zero")
		}
	}
}

func TestQuantizedDecodingStillWorks(t *testing.T) {
	// 4-bit LLRs decode essentially as well as floats at moderate SNR.
	ch, err := channel.PositionB.New(false)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(311))
	m, _ := ModeByRate(24)
	okFloat, okQ4, okQ3 := 0, 0, 0
	const trials = 12
	for i := 0; i < trials; i++ {
		psdu := randPSDU(rng, 600)
		tx, err := BuildPacket(TxConfig{Mode: m}, psdu)
		if err != nil {
			t.Fatal(err)
		}
		samples, _ := tx.Samples()
		h := ch.FrequencyResponse(0)
		nv, _ := NoiseVarForActualSNR(h, m.MinSNRdB+3)
		rx := ch.Apply(samples, 0, nv, rng)
		fe, err := RunFrontEnd(rx)
		if err != nil {
			t.Fatal(err)
		}
		if dec, err := fe.Decode(DecodeConfig{Mode: m, PSDULen: len(psdu)}); err == nil && bytes.Equal(dec.PSDU, psdu) {
			okFloat++
		}
		if dec, err := fe.Decode(DecodeConfig{Mode: m, PSDULen: len(psdu), LLRBits: 4}); err == nil && bytes.Equal(dec.PSDU, psdu) {
			okQ4++
		}
		if dec, err := fe.Decode(DecodeConfig{Mode: m, PSDULen: len(psdu), LLRBits: 3}); err == nil && bytes.Equal(dec.PSDU, psdu) {
			okQ3++
		}
	}
	if okQ4 < okFloat-1 {
		t.Errorf("4-bit LLRs lost too much: float %d/%d vs 4-bit %d/%d", okFloat, trials, okQ4, trials)
	}
	// 3 bits is aggressive (hardware uses 4-6); expect degradation but not
	// total failure.
	if okQ3 == 0 {
		t.Errorf("3-bit LLRs failed completely: float %d vs 3-bit %d", okFloat, okQ3)
	}
	if okFloat < trials-2 {
		t.Errorf("float baseline %d/%d unexpectedly weak", okFloat, trials)
	}
}

func TestDecodeRejectsBadLLRWidth(t *testing.T) {
	flat, _ := channel.PositionFlat.New(false)
	m, _ := ModeByRate(12)
	psdu := randPSDU(rand.New(rand.NewSource(312)), 50)
	tx, _ := BuildPacket(TxConfig{Mode: m}, psdu)
	samples, _ := tx.Samples()
	rx := flat.Apply(samples, 0, 1e-6, rand.New(rand.NewSource(313)))
	fe, err := RunFrontEnd(rx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fe.Decode(DecodeConfig{Mode: m, PSDULen: 50, LLRBits: 1}); err == nil {
		t.Error("LLR width 1 should be rejected")
	}
}

// TestQuantizedDecodeAllocatesNothing: with LLRBits set, DecodeInto on a
// warmed scratch quantizes in place and keeps the magnitudes it sorts in
// the scratch, so a quantized decode allocates no more than a float one.
func TestQuantizedDecodeAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(314))
	ch, err := channel.PositionA.New(false)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := ModeByRate(24)
	c := newDiagCase(t, rng, m, ch, 15, 1024, nil)
	cfg := c.cfg
	cfg.LLRBits = 5
	var s RxScratch
	if _, err := c.fe.DecodeInto(&s, cfg); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := c.fe.DecodeInto(&s, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("DecodeInto with LLRBits 5 allocates %v times per packet, want 0", allocs)
	}
}
