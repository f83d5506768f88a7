package coding

import (
	"math/rand"
	"testing"
	"testing/quick"

	"cos/internal/bits"
)

// the four (NCBPS, NBPSC) pairs used by 802.11a.
var interleaverModes = []struct {
	ncbps, nbpsc int
}{
	{48, 1},  // BPSK
	{96, 2},  // QPSK
	{192, 4}, // 16QAM
	{288, 6}, // 64QAM
}

func TestInterleaverIsBijection(t *testing.T) {
	for _, m := range interleaverModes {
		il, err := NewInterleaver(m.ncbps, m.nbpsc)
		if err != nil {
			t.Fatalf("NewInterleaver(%d,%d): %v", m.ncbps, m.nbpsc, err)
		}
		seen := make([]bool, m.ncbps)
		for _, j := range il.perm {
			if j < 0 || j >= m.ncbps || seen[j] {
				t.Fatalf("mode %+v: permutation is not a bijection", m)
			}
			seen[j] = true
		}
	}
}

func TestDeinterleaveInvertsInterleave(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, m := range interleaverModes {
		il, err := NewInterleaver(m.ncbps, m.nbpsc)
		if err != nil {
			t.Fatal(err)
		}
		// Multiple blocks at once.
		in := randBits(rng, 3*m.ncbps)
		mid, err := InterleaveInto(il, nil, in)
		if err != nil {
			t.Fatal(err)
		}
		out, err := DeinterleaveInto(il, nil, mid)
		if err != nil {
			t.Fatal(err)
		}
		if !bits.Equal(out, in) {
			t.Errorf("mode %+v: deinterleave(interleave(x)) != x", m)
		}
	}
}

func TestInterleaverKnownFirstMapping(t *testing.T) {
	// For BPSK (NCBPS=48, s=1): j == i == 3*(k mod 16) + k/16.
	il, err := NewInterleaver(48, 1)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 48; k++ {
		want := 3*(k%16) + k/16
		if il.perm[k] != want {
			t.Errorf("BPSK perm[%d] = %d, want %d", k, il.perm[k], want)
		}
	}
}

func TestInterleaverSpreadsAdjacentBits(t *testing.T) {
	// The point of the interleaver: adjacent coded bits land on distant
	// positions (different subcarriers). Verify minimum output distance of
	// adjacent inputs is at least NCBPS/16 - nbpsc for each mode.
	for _, m := range interleaverModes {
		il, _ := NewInterleaver(m.ncbps, m.nbpsc)
		minDist := m.ncbps
		for k := 0; k+1 < m.ncbps; k++ {
			d := il.perm[k+1] - il.perm[k]
			if d < 0 {
				d = -d
			}
			if d < minDist {
				minDist = d
			}
		}
		if minDist < m.ncbps/16-m.nbpsc {
			t.Errorf("mode %+v: adjacent coded bits only %d apart", m, minDist)
		}
	}
}

func TestInterleaveGenericOverFloats(t *testing.T) {
	il, err := NewInterleaver(48, 1)
	if err != nil {
		t.Fatal(err)
	}
	in := make([]float64, 48)
	for i := range in {
		in[i] = float64(i)
	}
	mid, err := InterleaveInto(il, nil, in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DeinterleaveInto(il, nil, mid)
	if err != nil {
		t.Fatal(err)
	}
	for i := range out {
		if out[i] != in[i] {
			t.Fatalf("float roundtrip failed at %d", i)
		}
	}
}

func TestInterleaverRejectsBadParameters(t *testing.T) {
	cases := []struct{ ncbps, nbpsc int }{
		{0, 1}, {47, 1}, {48, 0}, {48, 5}, {-16, 2},
	}
	for _, c := range cases {
		if _, err := NewInterleaver(c.ncbps, c.nbpsc); err == nil {
			t.Errorf("NewInterleaver(%d,%d): want error", c.ncbps, c.nbpsc)
		}
	}
}

func TestInterleaveRejectsBadLength(t *testing.T) {
	il, _ := NewInterleaver(48, 1)
	if _, err := InterleaveInto(il, nil, make([]byte, 47)); err == nil {
		t.Error("want error for non-multiple length")
	}
	if _, err := DeinterleaveInto(il, nil, make([]byte, 49)); err == nil {
		t.Error("want error for non-multiple length")
	}
}

func TestInterleaverPropertyRandomModes(t *testing.T) {
	f := func(blockIdx uint8, seed int64) bool {
		m := interleaverModes[int(blockIdx)%len(interleaverModes)]
		il, err := NewInterleaver(m.ncbps, m.nbpsc)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		in := randBits(rng, m.ncbps)
		mid, err := InterleaveInto(il, nil, in)
		if err != nil {
			return false
		}
		out, err := DeinterleaveInto(il, nil, mid)
		if err != nil {
			return false
		}
		return bits.Equal(out, in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
