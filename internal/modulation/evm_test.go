package modulation

import (
	"math"
	"math/rand"
	"testing"
)

func TestEVMZeroForPerfectReception(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for _, s := range allSchemes {
		in := randomBits(rng, s.BitsPerSymbol()*40)
		pts, err := s.MapBitsInto(nil, in)
		if err != nil {
			t.Fatal(err)
		}
		evm, err := EVM(s, pts, pts)
		if err != nil {
			t.Fatal(err)
		}
		if evm != 0 {
			t.Errorf("%v: EVM of perfect reception = %v", s, evm)
		}
	}
}

func TestEVMKnownValue(t *testing.T) {
	// A fixed error vector of magnitude e on every symbol of a unit-power
	// constellation gives EVM = e.
	ideal := []complex128{1, -1, 1i, -1i}
	received := make([]complex128, len(ideal))
	const e = 0.25
	for i, p := range ideal {
		received[i] = p + complex(e, 0)
	}
	evm, err := EVM(QPSK, received, ideal)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(evm-e) > 1e-12 {
		t.Errorf("EVM = %v, want %v", evm, e)
	}
}

func TestEVMMatchesNoiseLevel(t *testing.T) {
	// With additive complex Gaussian noise of variance N0 on a unit-power
	// constellation, EVM converges to sqrt(N0).
	rng := rand.New(rand.NewSource(52))
	const n0 = 0.04
	sigma := math.Sqrt(n0 / 2)
	in := randomBits(rng, QAM16.BitsPerSymbol()*20000)
	pts, _ := QAM16.MapBitsInto(nil, in)
	rx := make([]complex128, len(pts))
	for i, p := range pts {
		rx[i] = p + complex(sigma*rng.NormFloat64(), sigma*rng.NormFloat64())
	}
	evm, err := EVM(QAM16, rx, pts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(evm-math.Sqrt(n0)) > 0.01 {
		t.Errorf("EVM = %v, want ~%v", evm, math.Sqrt(n0))
	}
}

func TestEVMErrors(t *testing.T) {
	if _, err := EVM(QPSK, []complex128{1}, []complex128{1, 2}); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := EVM(QPSK, nil, nil); err == nil {
		t.Error("empty input should error")
	}
	if _, err := EVM(Scheme(0), []complex128{1}, []complex128{1}); err == nil {
		t.Error("invalid scheme should error")
	}
}

func TestErrorVectorMagnitudes(t *testing.T) {
	got, err := ErrorVectorMagnitudes([]complex128{3 + 4i, 1}, []complex128{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got[0]-5) > 1e-12 || got[1] != 0 {
		t.Errorf("magnitudes = %v, want [5 0]", got)
	}
	if _, err := ErrorVectorMagnitudes([]complex128{1}, nil); err == nil {
		t.Error("length mismatch should error")
	}
}

func TestNablaEVM(t *testing.T) {
	dt := []float64{1, 2, 2}
	// Identical vectors -> zero change.
	got, err := NablaEVM(dt, dt)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("NablaEVM(identical) = %v", got)
	}
	// Known value: D(t)=[3,0], D(t+tau)=[0,4]: ||diff||=5, ||ref||=4.
	got, err = NablaEVM([]float64{3, 0}, []float64{0, 4})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1.25) > 1e-12 {
		t.Errorf("NablaEVM = %v, want 1.25", got)
	}
	if _, err := NablaEVM([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := NablaEVM([]float64{1}, []float64{0}); err == nil {
		t.Error("zero reference should error")
	}
}
