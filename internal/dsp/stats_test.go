package dsp

import (
	"math"
	"testing"
)

func TestMeanVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); math.Abs(got-5) > 1e-12 {
		t.Errorf("Mean = %v, want 5", got)
	}
	if got := Variance(xs); math.Abs(got-4) > 1e-12 {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := StdDev(xs); math.Abs(got-2) > 1e-12 {
		t.Errorf("StdDev = %v, want 2", got)
	}
	if Mean(nil) != 0 || Variance(nil) != 0 {
		t.Error("empty-slice stats should be 0")
	}
}

func TestEmpiricalCDF(t *testing.T) {
	pts := EmpiricalCDF([]float64{3, 1, 2})
	if len(pts) != 3 {
		t.Fatalf("len = %d, want 3", len(pts))
	}
	wantVals := []float64{1, 2, 3}
	wantProbs := []float64{1.0 / 3, 2.0 / 3, 1}
	for i, p := range pts {
		if p.Value != wantVals[i] || math.Abs(p.Prob-wantProbs[i]) > 1e-12 {
			t.Errorf("point %d = %+v, want {%v %v}", i, p, wantVals[i], wantProbs[i])
		}
	}
	if EmpiricalCDF(nil) != nil {
		t.Error("EmpiricalCDF(nil) should be nil")
	}
}
