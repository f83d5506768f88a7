package ofdm

import (
	"math/cmplx"
	"math/rand"
	"testing"

	"cos/internal/dsp"
)

func randGrid(rng *rand.Rand, numSymbols int) *Grid {
	g := NewGrid(numSymbols)
	for s := 0; s < numSymbols; s++ {
		row, _ := g.Symbol(s)
		for d := range row {
			// QPSK-like points.
			row[d] = complex(float64(2*rng.Intn(2)-1), float64(2*rng.Intn(2)-1)) * complex(1/1.4142135623730951, 0)
		}
	}
	return g
}

func TestGridAccessors(t *testing.T) {
	g := NewGrid(3)
	if g.NumSymbols() != 3 {
		t.Fatalf("NumSymbols = %d", g.NumSymbols())
	}
	if err := g.Set(1, 5, 2+3i); err != nil {
		t.Fatal(err)
	}
	v, err := g.At(1, 5)
	if err != nil || v != 2+3i {
		t.Errorf("At = %v, %v", v, err)
	}
	if _, err := g.At(3, 0); err == nil {
		t.Error("out-of-range symbol should error")
	}
	if _, err := g.At(0, 48); err == nil {
		t.Error("out-of-range subcarrier should error")
	}
	if err := g.Set(-1, 0, 0); err == nil {
		t.Error("negative symbol should error")
	}
	if err := g.Set(0, -1, 0); err == nil {
		t.Error("negative subcarrier should error")
	}
}

func TestGridClone(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	g := randGrid(rng, 2)
	c := g.Clone()
	if err := c.Set(0, 0, 99); err != nil {
		t.Fatal(err)
	}
	v, _ := g.At(0, 0)
	if v == 99 {
		t.Error("Clone shares storage with original")
	}
}

func TestModulateDemodulateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	g := randGrid(rng, 5)
	samples, err := g.Modulate(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 5*SymbolLen {
		t.Fatalf("sample count = %d, want %d", len(samples), 5*SymbolLen)
	}
	binsList, err := DemodulateInto(nil, samples)
	if err != nil {
		t.Fatal(err)
	}
	if len(binsList) != 5 {
		t.Fatalf("symbol count = %d", len(binsList))
	}
	for s := range binsList {
		for d := 0; d < NumData; d++ {
			got, err := binsList[s].DataValue(d)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := g.At(s, d)
			if cmplx.Abs(got-want) > 1e-9 {
				t.Fatalf("symbol %d subcarrier %d: %v != %v", s, d, got, want)
			}
		}
		for p := 0; p < NumPilots; p++ {
			got, err := binsList[s].PilotObservation(p)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := PilotValue(p, 1+s)
			if cmplx.Abs(got-want) > 1e-9 {
				t.Fatalf("symbol %d pilot %d: %v != %v", s, p, got, want)
			}
		}
	}
}

func TestModulateGuardBinsEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	g := randGrid(rng, 1)
	samples, err := g.Modulate(0)
	if err != nil {
		t.Fatal(err)
	}
	bins, err := DemodulateInto(nil, samples)
	if err != nil {
		t.Fatal(err)
	}
	for k := 27; k <= 37; k++ { // bins 27..37 are guards (logical 27..31, -32..-27)
		if cmplx.Abs(bins[0][k]) > 1e-9 {
			t.Errorf("guard bin %d carries energy %v", k, cmplx.Abs(bins[0][k]))
		}
	}
	if cmplx.Abs(bins[0][0]) > 1e-9 {
		t.Error("DC bin carries energy")
	}
}

func TestCyclicPrefixIsCopyOfTail(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	g := randGrid(rng, 2)
	samples, err := g.Modulate(0)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 2; s++ {
		sym := samples[s*SymbolLen : (s+1)*SymbolLen]
		for i := 0; i < CPLen; i++ {
			if sym[i] != sym[NumSubcarriers+i] {
				t.Fatalf("symbol %d: CP sample %d mismatch", s, i)
			}
		}
	}
}

func TestDemodulateRejectsPartialSymbol(t *testing.T) {
	if _, err := DemodulateInto(nil, make([]complex128, SymbolLen+1)); err == nil {
		t.Error("want error for partial symbol")
	}
}

func TestSilencedSubcarrierHasZeroEnergy(t *testing.T) {
	// The CoS mechanism: zeroing a grid element produces (near-)zero energy
	// in the corresponding FFT bin at the receiver.
	rng := rand.New(rand.NewSource(65))
	g := randGrid(rng, 1)
	const silenced = 13
	if err := g.Set(0, silenced, 0); err != nil {
		t.Fatal(err)
	}
	samples, _ := g.Modulate(0)
	bins, _ := DemodulateInto(nil, samples)
	v, _ := bins[0].DataValue(silenced)
	if cmplx.Abs(v) > 1e-9 {
		t.Errorf("silenced subcarrier energy %v", dsp.MagSq(v))
	}
	// Neighbors unaffected.
	v, _ = bins[0].DataValue(silenced + 1)
	if cmplx.Abs(v) < 0.5 {
		t.Error("neighbor subcarrier lost energy")
	}
}

func TestBinsAccessorBounds(t *testing.T) {
	var b Bins
	if _, err := b.DataValue(-1); err == nil {
		t.Error("DataValue(-1) should error")
	}
	if _, err := b.DataValue(48); err == nil {
		t.Error("DataValue(48) should error")
	}
	if _, err := b.PilotObservation(-1); err == nil {
		t.Error("PilotObservation(-1) should error")
	}
	if _, err := b.PilotObservation(4); err == nil {
		t.Error("PilotObservation(4) should error")
	}
	if _, err := b.DataValue(0); err != nil {
		t.Error("DataValue(0) should work")
	}
}
