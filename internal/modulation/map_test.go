package modulation

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"cos/internal/bits"
)

var allSchemes = []Scheme{BPSK, QPSK, QAM16, QAM64}

func TestSchemeBasics(t *testing.T) {
	cases := []struct {
		s     Scheme
		name  string
		nbpsc int
		norm  float64
	}{
		{BPSK, "BPSK", 1, 1},
		{QPSK, "QPSK", 2, 1 / math.Sqrt2},
		{QAM16, "16QAM", 4, 1 / math.Sqrt(10)},
		{QAM64, "64QAM", 6, 1 / math.Sqrt(42)},
	}
	for _, c := range cases {
		if c.s.String() != c.name {
			t.Errorf("String = %q, want %q", c.s.String(), c.name)
		}
		if c.s.BitsPerSymbol() != c.nbpsc {
			t.Errorf("%v BitsPerSymbol = %d, want %d", c.s, c.s.BitsPerSymbol(), c.nbpsc)
		}
		if math.Abs(c.s.Norm()-c.norm) > 1e-12 {
			t.Errorf("%v Norm = %v, want %v", c.s, c.s.Norm(), c.norm)
		}
		if !c.s.Valid() {
			t.Errorf("%v should be valid", c.s)
		}
	}
	if Scheme(0).Valid() || Scheme(5).Valid() {
		t.Error("out-of-range schemes should be invalid")
	}
	if Scheme(9).BitsPerSymbol() != 0 || Scheme(9).Norm() != 0 {
		t.Error("invalid scheme should report zero parameters")
	}
}

func TestConstellationUnitPower(t *testing.T) {
	for _, s := range allSchemes {
		pts := s.Constellation()
		if len(pts) != 1<<s.BitsPerSymbol() {
			t.Fatalf("%v constellation has %d points", s, len(pts))
		}
		var p float64
		for _, pt := range pts {
			p += real(pt)*real(pt) + imag(pt)*imag(pt)
		}
		p /= float64(len(pts))
		if math.Abs(p-1) > 1e-12 {
			t.Errorf("%v constellation power = %v, want 1", s, p)
		}
	}
}

func TestConstellationPointsDistinct(t *testing.T) {
	for _, s := range allSchemes {
		pts := s.Constellation()
		for i := range pts {
			for j := i + 1; j < len(pts); j++ {
				if cmplx.Abs(pts[i]-pts[j]) < 1e-9 {
					t.Fatalf("%v points %d and %d coincide", s, i, j)
				}
			}
		}
	}
}

func TestMinDistance(t *testing.T) {
	// Verify Dm against a brute-force pairwise search.
	for _, s := range allSchemes {
		pts := s.Constellation()
		min := math.Inf(1)
		for i := range pts {
			for j := i + 1; j < len(pts); j++ {
				if d := cmplx.Abs(pts[i] - pts[j]); d < min {
					min = d
				}
			}
		}
		if s == BPSK {
			// Only two points; Dm = 2.
			if math.Abs(s.MinDistance()-2) > 1e-12 {
				t.Errorf("BPSK MinDistance = %v, want 2", s.MinDistance())
			}
			continue
		}
		if math.Abs(s.MinDistance()-min) > 1e-12 {
			t.Errorf("%v MinDistance = %v, brute force %v", s, s.MinDistance(), min)
		}
	}
}

func TestMapKnownPoints(t *testing.T) {
	// Spot checks against IEEE 802.11a Table 17-* encodings.
	n16 := 1 / math.Sqrt(10)
	n64 := 1 / math.Sqrt(42)
	cases := []struct {
		s    Scheme
		bits []byte
		want complex128
	}{
		{BPSK, []byte{0}, complex(-1, 0)},
		{BPSK, []byte{1}, complex(1, 0)},
		{QPSK, []byte{0, 0}, complex(-1, -1) * complex(1/math.Sqrt2, 0)},
		{QPSK, []byte{1, 0}, complex(1, -1) * complex(1/math.Sqrt2, 0)},
		{QAM16, []byte{0, 0, 0, 0}, complex(-3*n16, -3*n16)},
		{QAM16, []byte{1, 0, 1, 1}, complex(3*n16, 1*n16)},
		{QAM16, []byte{0, 1, 1, 0}, complex(-1*n16, 3*n16)},
		{QAM64, []byte{0, 0, 0, 0, 0, 0}, complex(-7*n64, -7*n64)},
		{QAM64, []byte{1, 0, 0, 1, 0, 0}, complex(7*n64, 7*n64)},
		{QAM64, []byte{0, 1, 0, 1, 1, 1}, complex(-1*n64, 3*n64)},
		{QAM64, []byte{1, 1, 0, 0, 0, 1}, complex(1*n64, -5*n64)},
	}
	for _, c := range cases {
		got, err := c.s.Map(c.bits)
		if err != nil {
			t.Fatalf("Map(%v,%v): %v", c.s, c.bits, err)
		}
		if cmplx.Abs(got-c.want) > 1e-12 {
			t.Errorf("Map(%v,%v) = %v, want %v", c.s, c.bits, got, c.want)
		}
	}
}

func TestMapErrors(t *testing.T) {
	if _, err := BPSK.Map([]byte{0, 1}); err == nil {
		t.Error("wrong bit count should error")
	}
	if _, err := QPSK.Map([]byte{0, 2}); err == nil {
		t.Error("non-bit should error")
	}
	if _, err := Scheme(0).Map([]byte{}); err == nil {
		t.Error("invalid scheme should error")
	}
	if _, err := QPSK.MapBitsInto(nil, []byte{0, 1, 1}); err == nil {
		t.Error("non-multiple bit count should error")
	}
}

func TestHardDemapRoundTrip(t *testing.T) {
	for _, s := range allSchemes {
		m := s.BitsPerSymbol()
		for v := 0; v < 1<<m; v++ {
			in := make([]byte, m)
			for i := 0; i < m; i++ {
				in[i] = byte((v >> (m - 1 - i)) & 1)
			}
			pt, err := s.Map(in)
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.HardDemap(pt)
			if err != nil {
				t.Fatal(err)
			}
			if !bits.Equal(got, in) {
				t.Errorf("%v: HardDemap(Map(%v)) = %v", s, in, got)
			}
		}
	}
}

func TestHardDemapWithSmallNoise(t *testing.T) {
	// Perturbations below half the minimum distance never change the
	// decision.
	rng := rand.New(rand.NewSource(41))
	for _, s := range allSchemes {
		m := s.BitsPerSymbol()
		maxShift := s.MinDistance() / 2 * 0.7
		for trial := 0; trial < 200; trial++ {
			in := randomBits(rng, m)
			pt, _ := s.Map(in)
			angle := rng.Float64() * 2 * math.Pi
			r := rng.Float64() * maxShift
			noisy := pt + cmplx.Rect(r, angle)
			got, _ := s.HardDemap(noisy)
			if !bits.Equal(got, in) {
				t.Fatalf("%v: decision changed under %v shift", s, r)
			}
		}
	}
}

func randomBits(rng *rand.Rand, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(rng.Intn(2))
	}
	return out
}

func TestMapBitsDemapBitsRoundTrip(t *testing.T) {
	f := func(seed int64, schemeIdx uint8) bool {
		s := allSchemes[int(schemeIdx)%len(allSchemes)]
		rng := rand.New(rand.NewSource(seed))
		in := randomBits(rng, s.BitsPerSymbol()*32)
		pts, err := s.MapBitsInto(nil, in)
		if err != nil {
			return false
		}
		out := make([]byte, 0, len(in))
		for _, pt := range pts {
			b, err := s.HardDemap(pt)
			if err != nil {
				return false
			}
			out = append(out, b...)
		}
		return bits.Equal(out, in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSoftDemapSignMatchesHardDecision(t *testing.T) {
	// For any observation, the sign of each soft metric must agree with the
	// hard decision for that bit (max-log with Gray mapping guarantees it).
	rng := rand.New(rand.NewSource(42))
	for _, s := range allSchemes {
		for trial := 0; trial < 300; trial++ {
			y := complex(rng.NormFloat64(), rng.NormFloat64())
			hard, err := s.HardDemap(y)
			if err != nil {
				t.Fatal(err)
			}
			soft, err := s.SoftDemap(y, 0.1)
			if err != nil {
				t.Fatal(err)
			}
			if len(soft) != len(hard) {
				t.Fatalf("%v: metric count %d != bit count %d", s, len(soft), len(hard))
			}
			for i := range soft {
				wantPositive := hard[i] == 1
				if soft[i] > 0 != wantPositive && soft[i] != 0 {
					t.Fatalf("%v trial %d bit %d: metric %v vs hard bit %d (y=%v)",
						s, trial, i, soft[i], hard[i], y)
				}
			}
		}
	}
}

func TestSoftDemapScalesWithNoise(t *testing.T) {
	y := complex(0.3, -0.8)
	for _, s := range allSchemes {
		a, _ := s.SoftDemap(y, 0.1)
		b, _ := s.SoftDemap(y, 0.2)
		for i := range a {
			if math.Abs(a[i]-2*b[i]) > 1e-9 {
				t.Errorf("%v: metric should scale 1/N0 (a=%v b=%v)", s, a[i], b[i])
			}
		}
	}
}

func TestSoftDemapClampsTinyNoise(t *testing.T) {
	for _, s := range allSchemes {
		m, err := s.SoftDemap(0.5+0.5i, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range m {
			if math.IsInf(v, 0) || math.IsNaN(v) {
				t.Fatalf("%v: non-finite metric %v with zero noise var", s, v)
			}
		}
	}
}

func TestBPSKSoftDemapExactForm(t *testing.T) {
	m, err := BPSK.SoftDemap(complex(0.7, 0.3), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	want := 4 * 0.7 / 0.5
	if math.Abs(m[0]-want) > 1e-12 {
		t.Errorf("BPSK metric = %v, want %v", m[0], want)
	}
}

func TestMinPointEnergyLocal(t *testing.T) {
	// Brute-force check against the constellations.
	for _, s := range allSchemes {
		min := math.Inf(1)
		for _, pt := range s.Constellation() {
			if p := real(pt)*real(pt) + imag(pt)*imag(pt); p < min {
				min = p
			}
		}
		if math.Abs(s.MinPointEnergy()-min) > 1e-12 {
			t.Errorf("%v MinPointEnergy = %v, brute force %v", s, s.MinPointEnergy(), min)
		}
	}
	if Scheme(0).MinPointEnergy() != 0 {
		t.Error("invalid scheme should report 0")
	}
}
