package outdoor

import (
	"math"
	"math/rand"
	"testing"

	"cos/internal/ofdm"
)

// TestNewValidation pins the parameter contract: [q, p, power] or nothing.
func TestNewValidation(t *testing.T) {
	if _, err := New(nil); err != nil {
		t.Fatalf("New(nil): %v", err)
	}
	if _, err := New([]float64{0.2, 0.1, 10}); err != nil {
		t.Fatalf("New(valid): %v", err)
	}
	for _, bad := range [][]float64{
		{0.1},
		{0.1, 0.05},
		{0.1, 0.05, 25, 1},
		{-0.1, 0.05, 25},
		{1.1, 0.05, 25},
		{0.1, -0.05, 25},
		{0.1, 1.05, 25},
		{0.1, 0.05, 0},
		{0.1, 0.05, -1},
	} {
		if _, err := New(bad); err == nil {
			t.Errorf("New(%v) accepted", bad)
		}
	}
}

// TestPropagateDeterministic pins the RNG contract: the same seed produces
// byte-identical output, and the realized SNR equals the target (flat
// channel).
func TestPropagateDeterministic(t *testing.T) {
	m, err := New(nil)
	if err != nil {
		t.Fatal(err)
	}
	samples := make([]complex128, ofdm.PreambleLen+4*ofdm.SymbolLen)
	src := rand.New(rand.NewSource(7))
	for i := range samples {
		samples[i] = complex(src.NormFloat64(), src.NormFloat64())
	}
	run := func() ([]complex128, float64) {
		out, actual, err := m.Propagate(nil, samples, 0, 15, rand.New(rand.NewSource(42)))
		if err != nil {
			t.Fatal(err)
		}
		cp := make([]complex128, len(out))
		copy(cp, out)
		return cp, actual
	}
	a, actualA := run()
	b, actualB := run()
	if actualA != 15 || actualB != 15 {
		t.Errorf("realized SNR = %v, %v; want 15 (flat channel)", actualA, actualB)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d differs across identical seeds: %v != %v", i, a[i], b[i])
		}
	}
}

// TestErasureCorruptsWholePayload pins the PEC arm: with q=1 every packet's
// payload is blasted while the preamble stays clean for front-end sync.
func TestErasureCorruptsWholePayload(t *testing.T) {
	m, err := New([]float64{1, 0, 25})
	if err != nil {
		t.Fatal(err)
	}
	samples := make([]complex128, ofdm.PreambleLen+2*ofdm.SymbolLen)
	for i := range samples {
		samples[i] = 1
	}
	// Reference: same seed, q=0 — isolates the erasure noise from AWGN.
	clean, err2 := New([]float64{0, 0, 25})
	if err2 != nil {
		t.Fatal(err2)
	}
	got, _, err := m.Propagate(nil, samples, 0, 30, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := clean.Propagate(nil, samples, 0, 30, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ofdm.PreambleLen; i++ {
		if got[i] != ref[i] {
			t.Fatalf("preamble sample %d was corrupted by the erasure arm", i)
		}
	}
	var diff float64
	for i := ofdm.PreambleLen; i < len(got); i++ {
		d := got[i] - ref[i]
		diff += real(d)*real(d) + imag(d)*imag(d)
	}
	if diff == 0 {
		t.Fatal("q=1 erasure left the payload untouched")
	}
}

// TestZeroProbabilitiesAreAWGNOnly pins the degenerate hybrid: q=p=0 is
// plain flat AWGN with finite samples.
func TestZeroProbabilitiesAreAWGNOnly(t *testing.T) {
	m, err := New([]float64{0, 0, 25})
	if err != nil {
		t.Fatal(err)
	}
	samples := make([]complex128, ofdm.PreambleLen+ofdm.SymbolLen)
	out, actual, err := m.Propagate(nil, samples, 0, 20, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if actual != 20 {
		t.Errorf("realized SNR = %v, want 20", actual)
	}
	for i, s := range out {
		if math.IsNaN(real(s)) || math.IsNaN(imag(s)) || math.IsInf(real(s), 0) || math.IsInf(imag(s), 0) {
			t.Fatalf("sample %d is not finite: %v", i, s)
		}
	}
}

// TestFrequencyResponseFlat pins the hybrid model's response: every
// occupied bin has unit gain at all times.
func TestFrequencyResponseFlat(t *testing.T) {
	m, err := New(nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.FrequencyResponse(0) != m.FrequencyResponse(1) {
		t.Error("flat channel drifted over time")
	}
	h := m.FrequencyResponse(0)
	for k := -26; k <= 26; k++ {
		if k == 0 {
			continue
		}
		bin, err := ofdm.Bin(k)
		if err != nil {
			t.Fatal(err)
		}
		if h[bin] != 1 {
			t.Fatalf("bin %d gain = %v, want 1", k, h[bin])
		}
	}
}
