package cos

import (
	"math/rand"
	"testing"
	"testing/quick"

	"cos/internal/bits"
	"cos/internal/ofdm"
)

func TestEncodeIntervalsPaperExample(t *testing.T) {
	// Sec. II-A: "001001101000001110100111" -> 2, 6, 8, 1, 14(?), ...
	// The paper spells out {"0010" -> 2, "0110" -> 6, ..., "0111" -> 7}.
	msg := []byte{0, 0, 1, 0, 0, 1, 1, 0, 1, 0, 0, 0, 0, 0, 1, 1, 1, 0, 1, 0, 0, 1, 1, 1}
	got, err := EncodeIntervalsInto(nil, msg, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{2, 6, 8, 3, 10, 7}
	if len(got) != len(want) {
		t.Fatalf("intervals = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("interval %d = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestIntervalRoundTrip(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		k := int(kRaw)%8 + 1
		rng := rand.New(rand.NewSource(seed))
		msg := make([]byte, k*(1+rng.Intn(20)))
		for i := range msg {
			msg[i] = byte(rng.Intn(2))
		}
		iv, err := EncodeIntervalsInto(nil, msg, k)
		if err != nil {
			return false
		}
		back, err := DecodeIntervalsInto(nil, iv, k)
		if err != nil {
			return false
		}
		return bits.Equal(back, msg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestEncodeIntervalsErrors(t *testing.T) {
	if _, err := EncodeIntervalsInto(nil, make([]byte, 5), 4); err == nil {
		t.Error("non-multiple length should error")
	}
	if _, err := EncodeIntervalsInto(nil, []byte{0, 1, 2, 0}, 4); err == nil {
		t.Error("non-bit should error")
	}
	if _, err := EncodeIntervalsInto(nil, nil, 0); err == nil {
		t.Error("k=0 should error")
	}
	if _, err := EncodeIntervalsInto(nil, nil, 17); err == nil {
		t.Error("k=17 should error")
	}
}

func TestDecodeIntervalsErrors(t *testing.T) {
	if _, err := DecodeIntervalsInto(nil, []int{16}, 4); err == nil {
		t.Error("interval out of range should error")
	}
	if _, err := DecodeIntervalsInto(nil, []int{-1}, 4); err == nil {
		t.Error("negative interval should error")
	}
	if _, err := DecodeIntervalsInto(nil, []int{1}, 0); err == nil {
		t.Error("k=0 should error")
	}
}

func TestLayoutPaperFigure(t *testing.T) {
	// Fig. 1(a): 6 control subcarriers; start marker at S(1,1); "0010"=2
	// puts the next silence at S(1,4); "0110"=6 puts the following one at
	// S(2,5). With our zero-based traversal (sym, ctrl slot):
	ctrl := []int{0, 1, 2, 3, 4, 5}
	pos, err := LayoutInto(nil, []int{2, 6}, 4, ctrl)
	if err != nil {
		t.Fatal(err)
	}
	want := []Pos{{0, 0}, {0, 3}, {1, 4}}
	if len(pos) != len(want) {
		t.Fatalf("positions = %v", pos)
	}
	for i := range want {
		if pos[i] != want[i] {
			t.Errorf("pos %d = %+v, want %+v", i, pos[i], want[i])
		}
	}
}

func TestLayoutExtractRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nCtrl := 1 + rng.Intn(8)
		ctrl := randomCtrlSet(rng, nCtrl)
		numSym := 10 + rng.Intn(80)
		k := 4
		maxBits := MaxMessageBits(numSym, nCtrl, k)
		if maxBits == 0 {
			return true
		}
		nBits := k * (1 + rng.Intn(maxBits/k))
		msg := make([]byte, nBits)
		for i := range msg {
			msg[i] = byte(rng.Intn(2))
		}
		iv, err := EncodeIntervalsInto(nil, msg, k)
		if err != nil {
			return false
		}
		pos, err := LayoutInto(nil, iv, numSym, ctrl)
		if err != nil {
			return false
		}
		mask := GrowMask(nil, numSym)
		for _, p := range pos {
			mask[p.Sym][p.SC] = true
		}
		gotIv, err := ExtractIntervalsInto(nil, mask, ctrl)
		if err != nil {
			return false
		}
		back, err := DecodeIntervalsInto(nil, gotIv, k)
		if err != nil {
			return false
		}
		return bits.Equal(back, msg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func randomCtrlSet(rng *rand.Rand, n int) []int {
	perm := rng.Perm(ofdm.NumData)[:n]
	// ascending
	for i := 0; i < len(perm); i++ {
		for j := i + 1; j < len(perm); j++ {
			if perm[j] < perm[i] {
				perm[i], perm[j] = perm[j], perm[i]
			}
		}
	}
	return perm
}

func TestLayoutCapacityError(t *testing.T) {
	ctrl := []int{10, 11}
	// 3 symbols x 2 subcarriers = 6 positions; interval 15 needs 17.
	if _, err := LayoutInto(nil, []int{15}, 3, ctrl); err == nil {
		t.Error("oversized message should error")
	}
	if _, err := LayoutInto(nil, []int{-1}, 3, ctrl); err == nil {
		t.Error("negative interval should error")
	}
	if _, err := LayoutInto(nil, nil, 0, ctrl); err == nil {
		t.Error("zero symbols should error")
	}
}

func TestLayoutCtrlValidation(t *testing.T) {
	bad := [][]int{nil, {}, {-1}, {48}, {5, 5}, {7, 3}}
	for _, ctrl := range bad {
		if _, err := LayoutInto(nil, []int{1}, 10, ctrl); err == nil {
			t.Errorf("ctrl set %v should error", ctrl)
		}
	}
}

func TestExtractIntervalsIgnoresLeadingNormals(t *testing.T) {
	// Silences at traversal positions 3 and 5 with ctrl = {20}: the first
	// silence is the start marker; one interval of gap 1.
	mask := GrowMask(nil, 8)
	mask[3][20] = true
	mask[5][20] = true
	iv, err := ExtractIntervalsInto(nil, mask, []int{20})
	if err != nil {
		t.Fatal(err)
	}
	if len(iv) != 1 || iv[0] != 1 {
		t.Errorf("intervals = %v, want [1]", iv)
	}
}

func TestExtractIntervalsEmptyMask(t *testing.T) {
	iv, err := ExtractIntervalsInto(nil, GrowMask(nil, 5), []int{3, 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(iv) != 0 {
		t.Errorf("intervals = %v, want empty", iv)
	}
}

func TestMaxMessageBits(t *testing.T) {
	// 100 symbols x 4 subcarriers = 400 positions; k=4 -> 16 positions per
	// worst-case interval after the start marker: 24 intervals = 96 bits.
	if got := MaxMessageBits(100, 4, 4); got != 96 {
		t.Errorf("MaxMessageBits = %d, want 96", got)
	}
	if MaxMessageBits(0, 4, 4) != 0 || MaxMessageBits(10, 0, 4) != 0 || MaxMessageBits(10, 4, 0) != 0 {
		t.Error("degenerate inputs should yield 0")
	}
}

func TestSilenceCount(t *testing.T) {
	if got := SilenceCount([]int{1, 2, 3}); got != 4 {
		t.Errorf("SilenceCount = %d, want 4", got)
	}
	if got := SilenceCount(nil); got != 1 {
		t.Errorf("SilenceCount(nil) = %d, want 1", got)
	}
}
