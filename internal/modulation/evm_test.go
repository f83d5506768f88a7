package modulation

import (
	"math"
	"testing"
)

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
