package channel

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"cos/internal/dsp"
	"cos/internal/ofdm"
)

func TestTDLConfigValidate(t *testing.T) {
	bad := []TDLConfig{
		{NumTaps: 0},
		{NumTaps: 17},
		{NumTaps: 2, DelaySpread: -1},
		{NumTaps: 2, DopplerHz: -1},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("Validate(%+v): want error", cfg)
		}
	}
	if err := (TDLConfig{NumTaps: 8, DelaySpread: 3}).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestNewTDLErrors(t *testing.T) {
	if _, err := NewTDL(TDLConfig{NumTaps: 0}, rand.New(rand.NewSource(1))); err == nil {
		t.Error("want error for invalid config")
	}
	if _, err := NewTDL(TDLConfig{NumTaps: 1}, nil); err == nil {
		t.Error("want error for nil rng")
	}
}

func TestTDLUnitAveragePower(t *testing.T) {
	// Averaged over many realizations, total tap power approaches 1.
	rng := rand.New(rand.NewSource(71))
	cfg := TDLConfig{NumTaps: 8, DelaySpread: 3}
	var total float64
	const n = 2000
	for i := 0; i < n; i++ {
		c, err := NewTDL(cfg, rng)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range c.TapsInto(nil, 0) {
			total += dsp.MagSq(g)
		}
	}
	avg := total / n
	if math.Abs(avg-1) > 0.05 {
		t.Errorf("average tap power = %v, want ~1", avg)
	}
}

func TestTDLExponentialProfile(t *testing.T) {
	// Early taps carry more average power than late taps.
	rng := rand.New(rand.NewSource(72))
	cfg := TDLConfig{NumTaps: 8, DelaySpread: 2}
	first, last := 0.0, 0.0
	const n = 1500
	for i := 0; i < n; i++ {
		c, _ := NewTDL(cfg, rng)
		taps := c.TapsInto(nil, 0)
		first += dsp.MagSq(taps[0])
		last += dsp.MagSq(taps[7])
	}
	if first <= last*5 {
		t.Errorf("tap0 power %v should dominate tap7 power %v", first/n, last/n)
	}
}

func TestStaticChannelConstantOverTime(t *testing.T) {
	c, err := NewTDL(TDLConfig{NumTaps: 4, DelaySpread: 1.5}, rand.New(rand.NewSource(73)))
	if err != nil {
		t.Fatal(err)
	}
	a := c.TapsInto(nil, 0)
	b := c.TapsInto(nil, 10.0)
	for i := range a {
		if cmplx.Abs(a[i]-b[i]) > 1e-12 {
			t.Fatalf("static channel tap %d moved", i)
		}
	}
}

func TestDopplerChannelEvolves(t *testing.T) {
	c, err := NewTDL(TDLConfig{NumTaps: 4, DelaySpread: 1.5, DopplerHz: WalkingDopplerHz},
		rand.New(rand.NewSource(74)))
	if err != nil {
		t.Fatal(err)
	}
	a := c.TapsInto(nil, 0)
	b := c.TapsInto(nil, 0.5) // far beyond coherence time at 26.6 Hz
	moved := 0.0
	for i := range a {
		moved += cmplx.Abs(a[i] - b[i])
	}
	if moved < 0.01 {
		t.Error("Doppler channel did not evolve over 500 ms")
	}
	// But barely moves within one packet duration (~500 us).
	cSlow := c.TapsInto(nil, 500e-6)
	drift := 0.0
	for i := range a {
		drift += cmplx.Abs(a[i] - cSlow[i])
	}
	if drift > moved/10 {
		t.Errorf("channel drift within a packet (%v) should be tiny vs 500 ms drift (%v)", drift, moved)
	}
}

func TestFrequencyResponseMatchesDFTOfTaps(t *testing.T) {
	c, err := NewTDL(TDLConfig{NumTaps: 8, DelaySpread: 3}, rand.New(rand.NewSource(75)))
	if err != nil {
		t.Fatal(err)
	}
	h := c.FrequencyResponse(0)
	taps := c.TapsInto(nil, 0)
	padded := make([]complex128, ofdm.NumSubcarriers)
	copy(padded, taps)
	ref, err := dsp.FFT(padded)
	if err != nil {
		t.Fatal(err)
	}
	for k := range h {
		if cmplx.Abs(h[k]-ref[k]) > 1e-9 {
			t.Fatalf("H[%d] = %v, FFT ref %v", k, h[k], ref[k])
		}
	}
}

func TestFrequencySelectivityIncreasesWithTaps(t *testing.T) {
	// More taps / larger spread => larger variation of |H| across band.
	spreadOf := func(cfg TDLConfig, seed int64) float64 {
		var acc float64
		const reps = 200
		for i := int64(0); i < reps; i++ {
			c, _ := NewTDL(cfg, rand.New(rand.NewSource(seed+i)))
			h := c.FrequencyResponse(0)
			mags := make([]float64, 0, 52)
			for k := -26; k <= 26; k++ {
				if k == 0 {
					continue
				}
				bin, _ := ofdm.Bin(k)
				mags = append(mags, dsp.MagSq(h[bin]))
			}
			acc += dsp.StdDev(mags) / (dsp.Mean(mags) + 1e-12)
		}
		return acc / reps
	}
	flat := spreadOf(TDLConfig{NumTaps: 1}, 100)
	rich := spreadOf(TDLConfig{NumTaps: 8, DelaySpread: 3}, 200)
	if flat > 1e-9 {
		t.Errorf("flat channel shows selectivity %v", flat)
	}
	if rich < 0.3 {
		t.Errorf("rich channel selectivity %v too small", rich)
	}
}

func TestConvolveIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	x := make([]complex128, 100)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	y := ConvolveInto(nil, x, []complex128{1})
	for i := range x {
		if x[i] != y[i] {
			t.Fatal("identity convolution changed signal")
		}
	}
	// One-sample delay.
	y = ConvolveInto(nil, x, []complex128{0, 1})
	if y[0] != 0 {
		t.Error("delayed convolution should zero the first sample")
	}
	for i := 1; i < len(x); i++ {
		if y[i] != x[i-1] {
			t.Fatal("delay convolution incorrect")
		}
	}
}

func TestAddAWGNStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	x := make([]complex128, 50000)
	AddAWGN(x, 0.25, rng)
	p := dsp.Power(x)
	if math.Abs(p-0.25) > 0.01 {
		t.Errorf("noise power = %v, want 0.25", p)
	}
	// Zero variance is a no-op.
	y := make([]complex128, 10)
	AddAWGN(y, 0, rng)
	if dsp.Power(y) != 0 {
		t.Error("zero-variance AWGN changed signal")
	}
}

func TestApplyPreservesLength(t *testing.T) {
	c, _ := NewTDL(TDLConfig{NumTaps: 4, DelaySpread: 1}, rand.New(rand.NewSource(78)))
	x := make([]complex128, 320)
	for i := range x {
		x[i] = 1
	}
	y := c.Apply(x, 0, 0.01, rand.New(rand.NewSource(79)))
	if len(y) != len(x) {
		t.Fatalf("Apply changed length: %d", len(y))
	}
}
