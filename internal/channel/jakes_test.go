package channel

import (
	"math"
	"math/rand"
	"testing"
)

// besselJ0 evaluates the Bessel function of the first kind, order zero,
// via its power series (|x| small) or asymptotic form (|x| large). Good to
// ~1e-6 over the range used here.
func besselJ0(x float64) float64 {
	x = math.Abs(x)
	if x < 8 {
		term := 1.0
		sum := 1.0
		for k := 1; k <= 30; k++ {
			term *= -x * x / (4 * float64(k) * float64(k))
			sum += term
		}
		return sum
	}
	return math.Sqrt(2/(math.Pi*x)) * math.Cos(x-math.Pi/4)
}

// TestJakesAutocorrelationMatchesBessel verifies the sum-of-sinusoids
// process reproduces the Clarke/Jakes temporal autocorrelation
// E[g(t)g*(t+tau)] = J0(2*pi*fd*tau), the property all the temporal
// experiments rely on.
func TestJakesAutocorrelationMatchesBessel(t *testing.T) {
	const fd = 10.0
	taus := []float64{0, 0.005, 0.010, 0.020, 0.040}
	const realizations = 4000

	for _, tau := range taus {
		var accRe, accIm, power float64
		for r := 0; r < realizations; r++ {
			ch, err := NewTDL(TDLConfig{NumTaps: 1, DopplerHz: fd, NumSinusoids: 32},
				rand.New(rand.NewSource(int64(9000+r))))
			if err != nil {
				t.Fatal(err)
			}
			g0 := ch.TapsInto(nil, 0)[0]
			g1 := ch.TapsInto(nil, tau)[0]
			prod := g0 * complex(real(g1), -imag(g1))
			accRe += real(prod)
			accIm += imag(prod)
			p := real(g0)*real(g0) + imag(g0)*imag(g0)
			power += p
		}
		got := accRe / power // normalized autocorrelation (real part)
		want := besselJ0(2 * math.Pi * fd * tau)
		if math.Abs(got-want) > 0.06 {
			t.Errorf("tau=%v: autocorrelation %.4f, Bessel J0 predicts %.4f", tau, got, want)
		}
		if im := accIm / power; math.Abs(im) > 0.06 {
			t.Errorf("tau=%v: imaginary autocorrelation %.4f should vanish", tau, im)
		}
	}
}

// TestTapsRayleighDistributed verifies single-tap magnitudes follow a
// Rayleigh distribution: P(|g|^2 > x) = exp(-x) for unit average power.
func TestTapsRayleighDistributed(t *testing.T) {
	const realizations = 6000
	exceed1, exceed2 := 0, 0
	for r := 0; r < realizations; r++ {
		ch, err := NewTDL(TDLConfig{NumTaps: 1, NumSinusoids: 32},
			rand.New(rand.NewSource(int64(20000+r))))
		if err != nil {
			t.Fatal(err)
		}
		g := ch.TapsInto(nil, 0)[0]
		p := real(g)*real(g) + imag(g)*imag(g)
		if p > 1 {
			exceed1++
		}
		if p > 2 {
			exceed2++
		}
	}
	got1 := float64(exceed1) / realizations
	got2 := float64(exceed2) / realizations
	if math.Abs(got1-math.Exp(-1)) > 0.03 {
		t.Errorf("P(|g|^2>1) = %.3f, Rayleigh predicts %.3f", got1, math.Exp(-1))
	}
	if math.Abs(got2-math.Exp(-2)) > 0.03 {
		t.Errorf("P(|g|^2>2) = %.3f, Rayleigh predicts %.3f", got2, math.Exp(-2))
	}
}
