package modulation

import (
	"math"
	"math/rand"
	"testing"
)

// exactLLR computes the true log-sum-exp LLR for bit i of scheme s given
// observation y and noise variance n0 — the quantity the max-log metric of
// Eq. (8) approximates.
func exactLLR(s Scheme, y complex128, n0 float64, bit int) float64 {
	pts := s.Constellation()
	m := s.BitsPerSymbol()
	var sum0, sum1 float64
	for idx, pt := range pts {
		d := y - pt
		l := math.Exp(-(real(d)*real(d) + imag(d)*imag(d)) / n0)
		// Index bit ordering: first transmitted bit is the MSB of idx.
		if (idx>>(m-1-bit))&1 == 0 {
			sum0 += l
		} else {
			sum1 += l
		}
	}
	if sum0 == 0 {
		sum0 = 1e-300
	}
	if sum1 == 0 {
		sum1 = 1e-300
	}
	return math.Log(sum1) - math.Log(sum0)
}

// TestSoftDemapApproximatesExactLLR: the max-log metrics must agree with
// the exact LLR in sign and, at moderate noise, in magnitude within the
// usual max-log error bound.
func TestSoftDemapApproximatesExactLLR(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	got := make([]float64, 8)
	for _, s := range allSchemes {
		got := got[:s.BitsPerSymbol()]
		const n0 = 0.05
		for trial := 0; trial < 200; trial++ {
			// Observations near a random constellation point.
			pts := s.Constellation()
			pt := pts[rng.Intn(len(pts))]
			y := pt + complex(math.Sqrt(n0/2)*rng.NormFloat64(), math.Sqrt(n0/2)*rng.NormFloat64())
			if err := s.SoftDemapInto(got, y, n0); err != nil {
				t.Fatal(err)
			}
			for i := range got {
				want := exactLLR(s, y, n0, i)
				// Sign agreement whenever the exact LLR is decisive.
				if math.Abs(want) > 0.5 && got[i]*want < 0 {
					t.Fatalf("%v trial %d bit %d: max-log %v vs exact %v disagree in sign",
						s, trial, i, got[i], want)
				}
				// Max-log underestimates magnitude but stays within ~log(M)
				// of the exact value at this noise level.
				if math.Abs(want) < 300 && math.Abs(got[i]-want) > math.Abs(want)*0.5+5 {
					t.Fatalf("%v trial %d bit %d: max-log %v too far from exact %v",
						s, trial, i, got[i], want)
				}
			}
		}
	}
}

// TestSoftDemapSymmetry: conjugating/negating the observation flips the
// corresponding axis bits for the I/Q-separable Gray mapping of BPSK/QPSK.
func TestSoftDemapSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	a, b := make([]float64, 2), make([]float64, 2)
	for trial := 0; trial < 100; trial++ {
		y := complex(rng.NormFloat64(), rng.NormFloat64())
		if err := QPSK.SoftDemapInto(a, y, 0.1); err != nil {
			t.Fatal(err)
		}
		if err := QPSK.SoftDemapInto(b, -y, 0.1); err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if math.Abs(a[i]+b[i]) > 1e-9 {
				t.Fatalf("negating the observation should negate QPSK metrics: %v vs %v", a, b)
			}
		}
	}
}
