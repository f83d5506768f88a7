package coding

import (
	"math/rand"
	"testing"

	"cos/internal/bits"
)

func TestCodeRateString(t *testing.T) {
	cases := map[CodeRate]string{
		Rate1_2:     "1/2",
		Rate2_3:     "2/3",
		Rate3_4:     "3/4",
		CodeRate(9): "CodeRate(9)",
	}
	for r, want := range cases {
		if got := r.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(r), got, want)
		}
	}
}

func TestCodeRateFraction(t *testing.T) {
	cases := []struct {
		r        CodeRate
		num, den int
	}{{Rate1_2, 1, 2}, {Rate2_3, 2, 3}, {Rate3_4, 3, 4}}
	for _, c := range cases {
		n, d := c.r.Fraction()
		if n != c.num || d != c.den {
			t.Errorf("%v.Fraction() = %d/%d, want %d/%d", c.r, n, d, c.num, c.den)
		}
	}
}

func TestPunctureLengths(t *testing.T) {
	in := make([]byte, 24)
	for _, c := range []struct {
		r    CodeRate
		want int
	}{{Rate1_2, 24}, {Rate2_3, 18}, {Rate3_4, 16}} {
		out, err := PunctureInto(nil, in, c.r)
		if err != nil {
			t.Fatalf("PunctureInto(%v): %v", c.r, err)
		}
		if len(out) != c.want {
			t.Errorf("PunctureInto(%v) length %d, want %d", c.r, len(out), c.want)
		}
	}
}

func TestPunctureKnownPattern(t *testing.T) {
	// Mother stream A1 B1 A2 B2 A3 B3 = 1 2 3 4 5 6 (using distinct values).
	in := []byte{1, 2, 3, 4, 5, 6}
	got, err := PunctureInto(nil, in, Rate3_4)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{1, 2, 3, 6} // A1 B1 A2 B3
	if !bits.Equal(got, want) {
		t.Errorf("3/4 puncture = %v, want %v", got, want)
	}
	got, err = PunctureInto(nil, in[:4], Rate2_3)
	if err != nil {
		t.Fatal(err)
	}
	want = []byte{1, 2, 3} // A1 B1 A2
	if !bits.Equal(got, want) {
		t.Errorf("2/3 puncture = %v, want %v", got, want)
	}
}

func TestPunctureErrors(t *testing.T) {
	if _, err := PunctureInto(nil, make([]byte, 5), Rate3_4); err == nil {
		t.Error("want error for non-multiple length")
	}
	if _, err := PunctureInto(nil, make([]byte, 6), CodeRate(0)); err == nil {
		t.Error("want error for invalid rate")
	}
}

func TestDepunctureRestoresLength(t *testing.T) {
	for _, r := range []CodeRate{Rate1_2, Rate2_3, Rate3_4} {
		mother := make([]byte, 48)
		p, err := PunctureInto(nil, mother, r)
		if err != nil {
			t.Fatal(err)
		}
		m := make([]float64, len(p))
		out, err := DepunctureMetricsInto(nil, m, r)
		if err != nil {
			t.Fatalf("DepunctureMetricsInto(%v): %v", r, err)
		}
		if len(out) != 48 {
			t.Errorf("DepunctureMetricsInto(%v) length %d, want 48", r, len(out))
		}
	}
}

func TestDepunctureInsertsZerosAtPuncturedPositions(t *testing.T) {
	// Metrics 1..4 for kept positions of one 3/4 period.
	in := []float64{10, 20, 30, 40}
	out, err := DepunctureMetricsInto(nil, in, Rate3_4)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{10, 20, 30, 0, 0, 40}
	if len(out) != len(want) {
		t.Fatalf("length %d, want %d", len(out), len(want))
	}
	for i := range want {
		if out[i] != want[i] {
			t.Errorf("out[%d] = %v, want %v", i, out[i], want[i])
		}
	}
}

func TestPuncturedRoundTripThroughViterbi(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	dec := &Viterbi{Terminated: true}
	for _, r := range []CodeRate{Rate1_2, Rate2_3, Rate3_4} {
		for trial := 0; trial < 10; trial++ {
			// Choose a data length that makes the mother output a multiple
			// of the puncture period (period 6 needs multiples of 3 input).
			data := randBits(rng, 300)
			coded := encodeWithTail(t, data)
			punct, err := PunctureInto(nil, coded, r)
			if err != nil {
				t.Fatal(err)
			}
			m, _ := HardMetrics(punct, 1)
			full, err := DepunctureMetricsInto(nil, m, r)
			if err != nil {
				t.Fatal(err)
			}
			got, err := dec.Decode(full)
			if err != nil {
				t.Fatal(err)
			}
			if !bits.Equal(got[:len(data)], data) {
				t.Fatalf("rate %v trial %d: punctured roundtrip failed", r, trial)
			}
		}
	}
}

func TestPuncturedCodeCorrectsErrors(t *testing.T) {
	// Even at 3/4 the code corrects isolated errors spaced beyond the
	// punctured free distance.
	rng := rand.New(rand.NewSource(22))
	dec := &Viterbi{Terminated: true}
	data := randBits(rng, 300)
	coded := encodeWithTail(t, data)
	punct, _ := PunctureInto(nil, coded, Rate3_4)
	m, _ := HardMetrics(punct, 1)
	for pos := 11; pos < len(m); pos += 80 {
		m[pos] = -m[pos]
	}
	full, _ := DepunctureMetricsInto(nil, m, Rate3_4)
	got, err := dec.Decode(full)
	if err != nil {
		t.Fatal(err)
	}
	if !bits.Equal(got[:len(data)], data) {
		t.Fatal("3/4 code failed to correct isolated errors")
	}
}
