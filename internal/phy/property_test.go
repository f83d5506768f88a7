package phy

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"cos/internal/channel"
	"cos/internal/ofdm"
)

// TestLoopbackPropertyRandomModesAndLengths pushes random (mode, payload
// length, payload, position) combinations through the full chain at
// comfortable SNR and demands exact recovery.
func TestLoopbackPropertyRandomModesAndLengths(t *testing.T) {
	positions := []channel.Position{channel.PositionA, channel.PositionB, channel.PositionC, channel.PositionFlat}
	f := func(seed int64, modeIdx, posIdx uint8, lenRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		mode := Modes()[int(modeIdx)%8]
		pos := positions[int(posIdx)%len(positions)]
		psduLen := 1 + int(lenRaw)%1200
		psdu := make([]byte, psduLen)
		rng.Read(psdu)

		tx, err := BuildPacket(TxConfig{Mode: mode}, psdu)
		if err != nil {
			return false
		}
		samples, err := tx.Samples()
		if err != nil {
			return false
		}
		ch, err := pos.NewVariant(false, seed%7)
		if err != nil {
			return false
		}
		h := ch.FrequencyResponse(0)
		nv, err := NoiseVarForActualSNR(h, mode.MinSNRdB+14)
		if err != nil {
			return false
		}
		rx := ch.Apply(samples, 0, nv, rng)
		fe, err := RunFrontEnd(rx)
		if err != nil {
			return false
		}
		dec, err := fe.Decode(DecodeConfig{Mode: mode, PSDULen: psduLen})
		if err != nil {
			return false
		}
		return bytes.Equal(dec.PSDU, psdu)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestGridSymbolCountMatchesFormula: the built grid always matches
// SymbolsForPSDU.
func TestGridSymbolCountMatchesFormula(t *testing.T) {
	f := func(modeIdx uint8, lenRaw uint16) bool {
		mode := Modes()[int(modeIdx)%8]
		psduLen := int(lenRaw) % 2000
		tx, err := BuildPacket(TxConfig{Mode: mode}, make([]byte, psduLen))
		if err != nil {
			return false
		}
		return tx.NumSymbols() == mode.SymbolsForPSDU(psduLen)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestSamplesLengthInvariant: rendered packets are always preamble plus a
// whole number of OFDM symbols.
func TestSamplesLengthInvariant(t *testing.T) {
	f := func(modeIdx uint8, lenRaw uint16) bool {
		mode := Modes()[int(modeIdx)%8]
		psduLen := int(lenRaw) % 1500
		tx, err := BuildPacket(TxConfig{Mode: mode}, make([]byte, psduLen))
		if err != nil {
			return false
		}
		plain, err := tx.Samples()
		if err != nil {
			return false
		}
		return len(plain) == ofdm.PreambleLen+tx.NumSymbols()*ofdm.SymbolLen
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestDiagnoseSelfConsistency: diagnosing a noiseless loopback reports
// zero errors and zero EVM everywhere.
func TestDiagnoseSelfConsistency(t *testing.T) {
	flat, err := channel.PositionFlat.New(false)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(321))
	m, _ := ModeByRate(36)
	psdu := randPSDU(rng, 400)
	tx, _ := BuildPacket(TxConfig{Mode: m}, psdu)
	samples, _ := tx.Samples()
	rx := flat.Apply(samples, 0, 1e-9, rng)
	fe, err := RunFrontEnd(rx)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := fe.Decode(DecodeConfig{Mode: m, PSDULen: len(psdu)})
	if err != nil {
		t.Fatal(err)
	}
	diag, err := Diagnose(tx, fe, nil, dec.HardCodedBits)
	if err != nil {
		t.Fatal(err)
	}
	if diag.DecoderInputBitErrors != 0 {
		t.Errorf("noiseless loopback has %d coded-bit errors", diag.DecoderInputBitErrors)
	}
	for d := 0; d < ofdm.NumData; d++ {
		if diag.SubcarrierErrorCounts[d] != 0 {
			t.Errorf("subcarrier %d has symbol errors in noiseless loopback", d)
		}
		if diag.EVM[d] > 1e-3 {
			t.Errorf("subcarrier %d EVM %v in noiseless loopback", d, diag.EVM[d])
		}
	}
	if len(diag.ErrorPositions()) != 0 {
		t.Error("noiseless loopback reports error positions")
	}
}

// TestDiagnoseExcludesErasedPositions: erased positions must not count as
// symbol errors even though the transmitted grid was silenced there.
func TestDiagnoseExcludesErasedPositions(t *testing.T) {
	flat, err := channel.PositionFlat.New(false)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(322))
	m, _ := ModeByRate(24)
	psdu := randPSDU(rng, 200)
	tx, _ := BuildPacket(TxConfig{Mode: m}, psdu)
	erased := make([][]bool, tx.NumSymbols())
	for s := range erased {
		erased[s] = make([]bool, ofdm.NumData)
		erased[s][7] = true
		if err := tx.Grid.Set(s, 7, 0); err != nil {
			t.Fatal(err)
		}
	}
	samples, _ := tx.Samples()
	rx := flat.Apply(samples, 0, 1e-9, rng)
	fe, err := RunFrontEnd(rx)
	if err != nil {
		t.Fatal(err)
	}
	diag, err := Diagnose(tx, fe, erased, nil)
	if err != nil {
		t.Fatal(err)
	}
	if diag.SubcarrierErrorCounts[7] != 0 {
		t.Errorf("erased subcarrier counted %d errors", diag.SubcarrierErrorCounts[7])
	}
	if diag.SymbolsPerSubcarrier[7] != 0 {
		t.Errorf("erased subcarrier counted %d compared symbols", diag.SymbolsPerSubcarrier[7])
	}
}
