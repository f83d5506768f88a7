package dsp

import (
	"math"
	"testing"
)

func TestPowerAndEnergy(t *testing.T) {
	x := []complex128{1, 1i, -1, -1i}
	if got := Power(x); math.Abs(got-1) > 1e-12 {
		t.Errorf("Power = %v, want 1", got)
	}
	if got := Energy(x); math.Abs(got-4) > 1e-12 {
		t.Errorf("Energy = %v, want 4", got)
	}
	if got := Power(nil); got != 0 {
		t.Errorf("Power(nil) = %v, want 0", got)
	}
}

func TestMagSq(t *testing.T) {
	if got := MagSq(3 + 4i); math.Abs(got-25) > 1e-12 {
		t.Errorf("MagSq(3+4i) = %v, want 25", got)
	}
	if got := Abs(3 + 4i); math.Abs(got-5) > 1e-12 {
		t.Errorf("Abs(3+4i) = %v, want 5", got)
	}
}

func TestDBRoundTrip(t *testing.T) {
	for _, db := range []float64{-30, -3, 0, 3, 10, 25.7} {
		if got := DB(Linear(db)); math.Abs(got-db) > 1e-9 {
			t.Errorf("DB(Linear(%v)) = %v", db, got)
		}
	}
	if !math.IsInf(DB(0), -1) {
		t.Error("DB(0) should be -Inf")
	}
	if !math.IsInf(DB(-1), -1) {
		t.Error("DB(-1) should be -Inf")
	}
}
