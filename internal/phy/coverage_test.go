package phy

import (
	"math/cmplx"
	"math/rand"
	"testing"

	"cos/internal/channel"
	"cos/internal/ofdm"
)

func TestDecoderInputBERHelper(t *testing.T) {
	d := &Diagnostics{DecoderInputBitErrors: 5, DecoderInputBits: 100}
	if got := d.DecoderInputBER(); got != 0.05 {
		t.Errorf("DecoderInputBER = %v", got)
	}
	var empty Diagnostics
	if empty.DecoderInputBER() != 0 {
		t.Error("empty diagnostics BER should be 0")
	}
}

func TestReconstructGridMatchesOriginal(t *testing.T) {
	rng := rand.New(rand.NewSource(601))
	m, _ := ModeByRate(36)
	psdu := randPSDU(rng, 300)
	cfg := TxConfig{Mode: m}
	tx, err := BuildPacket(cfg, psdu)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := ReconstructGridInto(nil, cfg, psdu)
	if err != nil {
		t.Fatal(err)
	}
	if grid.NumSymbols() != tx.NumSymbols() {
		t.Fatalf("reconstructed %d symbols, want %d", grid.NumSymbols(), tx.NumSymbols())
	}
	for s := 0; s < grid.NumSymbols(); s++ {
		a, _ := grid.Symbol(s)
		b, _ := tx.Grid.Symbol(s)
		for d := range a {
			if cmplx.Abs(a[d]-b[d]) > 1e-12 {
				t.Fatalf("reconstructed grid differs at (%d,%d)", s, d)
			}
		}
	}
	if _, err := ReconstructGridInto(nil, TxConfig{}, psdu); err == nil {
		t.Error("invalid config should error")
	}
}

func TestFrontEndAccessorBounds(t *testing.T) {
	flat, _ := channel.PositionFlat.New(false)
	m, _ := ModeByRate(12)
	psdu := randPSDU(rand.New(rand.NewSource(602)), 50)
	tx, _ := BuildPacket(TxConfig{Mode: m}, psdu)
	samples, _ := tx.Samples()
	rx := flat.Apply(samples, 0, 1e-6, rand.New(rand.NewSource(603)))
	fe, err := RunFrontEnd(rx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fe.ChannelAt(-1); err == nil {
		t.Error("ChannelAt(-1) should error")
	}
	if _, err := fe.ChannelAt(48); err == nil {
		t.Error("ChannelAt(48) should error")
	}
	if _, err := fe.Equalized(-1); err == nil {
		t.Error("Equalized(-1) should error")
	}
	if _, err := fe.Equalized(fe.NumSymbols()); err == nil {
		t.Error("Equalized out of range should error")
	}
}

func TestEqualizedDeadSubcarrierYieldsZero(t *testing.T) {
	// Force a (near-)zero channel estimate and confirm equalization does
	// not blow up.
	flat, _ := channel.PositionFlat.New(false)
	m, _ := ModeByRate(12)
	psdu := randPSDU(rand.New(rand.NewSource(604)), 50)
	tx, _ := BuildPacket(TxConfig{Mode: m}, psdu)
	samples, _ := tx.Samples()
	rx := flat.Apply(samples, 0, 1e-9, rand.New(rand.NewSource(605)))
	fe, err := RunFrontEnd(rx)
	if err != nil {
		t.Fatal(err)
	}
	k, _ := ofdm.DataIndex(10)
	bin, _ := ofdm.Bin(k)
	fe.ChannelEst[bin] = 0
	eq, err := fe.Equalized(0)
	if err != nil {
		t.Fatal(err)
	}
	if eq[10] != 0 {
		t.Errorf("dead subcarrier equalized to %v, want 0", eq[10])
	}
}

func TestSNRHelpersErrors(t *testing.T) {
	var h [ofdm.NumSubcarriers]complex128
	if _, err := ActualSNRdB(h, 0); err == nil {
		t.Error("zero noise variance should error")
	}
	if _, err := NoiseVarForActualSNR(h, 10); err == nil {
		t.Error("zero-gain channel should error")
	}
	for i := range h {
		h[i] = 1
	}
	nv, err := NoiseVarForActualSNR(h, 20)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ActualSNRdB(h, nv)
	if err != nil {
		t.Fatal(err)
	}
	if got < 19.99 || got > 20.01 {
		t.Errorf("SNR roundtrip = %v, want 20", got)
	}
}

func TestEncodeSignalErrors(t *testing.T) {
	if _, err := EncodeSignal(Mode{RateMbps: 99}, 100); err == nil {
		t.Error("unknown mode should error")
	}
	m, _ := ModeByRate(6)
	sig, err := EncodeSignal(m, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(sig) != ofdm.NumData {
		t.Errorf("SIGNAL symbol has %d points", len(sig))
	}
	// BPSK points only.
	for i, p := range sig {
		if imag(p) != 0 || (real(p) != 1 && real(p) != -1) {
			t.Fatalf("SIGNAL point %d = %v is not BPSK", i, p)
		}
	}
}

func TestSamplesWithSignalErrors(t *testing.T) {
	// An oversized PSDU cannot be described by the 12-bit LENGTH field.
	m, _ := ModeByRate(54)
	tx, err := BuildPacket(TxConfig{Mode: m}, make([]byte, MaxSignalLength+1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.SamplesWithSignal(); err == nil {
		t.Error("PSDU beyond the LENGTH field should error")
	}
}

func TestMeasuredSNRFloorsDeadSubcarriers(t *testing.T) {
	flat, _ := channel.PositionFlat.New(false)
	m, _ := ModeByRate(12)
	psdu := randPSDU(rand.New(rand.NewSource(606)), 50)
	tx, _ := BuildPacket(TxConfig{Mode: m}, psdu)
	samples, _ := tx.Samples()
	rx := flat.Apply(samples, 0, 1e-6, rand.New(rand.NewSource(607)))
	fe, err := RunFrontEnd(rx)
	if err != nil {
		t.Fatal(err)
	}
	// Kill half the band; the dB-mean must stay finite.
	for d := 0; d < 24; d++ {
		k, _ := ofdm.DataIndex(d)
		bin, _ := ofdm.Bin(k)
		fe.ChannelEst[bin] = 0
	}
	got, err := fe.MeasuredSNRdB()
	if err != nil {
		t.Fatal(err)
	}
	if got != got || got < -100 { // NaN or absurd
		t.Errorf("measured SNR with dead subcarriers = %v", got)
	}
}
