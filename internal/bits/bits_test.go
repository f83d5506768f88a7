package bits

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFromBytesToBytesRoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		b := FromBytesInto(nil, data)
		back, err := ToBytesInto(nil, b)
		if err != nil {
			return false
		}
		return bytes.Equal(back, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFromBytesLSBFirst(t *testing.T) {
	got := FromBytesInto(nil, []byte{0x01, 0x80})
	want := []byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1}
	if !Equal(got, want) {
		t.Errorf("FromBytesInto = %v, want %v", got, want)
	}
}

func TestToBytesErrors(t *testing.T) {
	if _, err := ToBytesInto(nil, make([]byte, 7)); err == nil {
		t.Error("ToBytesInto of non-multiple-of-8 should error")
	}
	if _, err := ToBytesInto(nil, []byte{0, 1, 2, 0, 0, 0, 0, 0}); err == nil {
		t.Error("ToBytesInto of non-bit element should error")
	}
}

func TestEqualAndDiff(t *testing.T) {
	a := []byte{0, 1, 1, 0}
	b := []byte{0, 1, 0, 0}
	if Equal(a, b) {
		t.Error("Equal of differing slices")
	}
	if !Equal(a, a) {
		t.Error("Equal of identical slices")
	}
	if got := Diff(a, b); got != 1 {
		t.Errorf("Diff = %d, want 1", got)
	}
	if got := Diff(a, a[:2]); got != 2 {
		t.Errorf("Diff with length mismatch = %d, want 2", got)
	}
	if got := Diff(nil, nil); got != 0 {
		t.Errorf("Diff(nil,nil) = %d, want 0", got)
	}
}

func TestScramblerSelfInverse(t *testing.T) {
	f := func(data []byte, seed byte) bool {
		in := FromBytesInto(nil, data)
		s1 := NewScrambler(seed)
		s2 := NewScrambler(seed)
		return Equal(s2.ScrambleInto(nil, s1.ScrambleInto(nil, in)), in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestScramblerKnownSequence(t *testing.T) {
	// 802.11a 17.3.5.4: with the all-ones initial state the scrambler
	// generates a 127-bit repeating sequence beginning
	// 00001110 11110010 11001001 ...
	s := NewScrambler(0x7F)
	want := []byte{
		0, 0, 0, 0, 1, 1, 1, 0,
		1, 1, 1, 1, 0, 0, 1, 0,
		1, 1, 0, 0, 1, 0, 0, 1,
	}
	got := s.Sequence(len(want))
	if !Equal(got, want) {
		t.Errorf("scrambler sequence = %v, want %v", got, want)
	}
}

func TestScramblerPeriod127(t *testing.T) {
	s := NewScrambler(0x7F)
	seq := s.Sequence(254)
	if !Equal(seq[:127], seq[127:]) {
		t.Error("scrambler sequence does not repeat with period 127")
	}
	// All 127 non-zero states must be visited exactly once: the sequence is
	// maximal length, so within one period there are 64 ones and 63 zeros.
	ones := 0
	for _, b := range seq[:127] {
		ones += int(b)
	}
	if ones != 64 {
		t.Errorf("ones in one period = %d, want 64", ones)
	}
}

func TestScramblerZeroSeedReplaced(t *testing.T) {
	s := NewScrambler(0)
	seq := s.Sequence(127)
	any := false
	for _, b := range seq {
		if b != 0 {
			any = true
			break
		}
	}
	if !any {
		t.Error("zero seed should be replaced to avoid an all-zero sequence")
	}
}

func TestFCSRoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		framed := AppendFCSInto(nil, data)
		payload, ok := CheckFCS(framed)
		return ok && bytes.Equal(payload, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFCSDetectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	data := make([]byte, 64)
	rng.Read(data)
	framed := AppendFCSInto(nil, data)
	for trial := 0; trial < 100; trial++ {
		corrupted := make([]byte, len(framed))
		copy(corrupted, framed)
		pos := rng.Intn(len(corrupted))
		bit := byte(1) << rng.Intn(8)
		corrupted[pos] ^= bit
		if _, ok := CheckFCS(corrupted); ok {
			t.Fatalf("single-bit corruption at byte %d undetected", pos)
		}
	}
}

func TestFCSTooShort(t *testing.T) {
	if _, ok := CheckFCS([]byte{1, 2, 3}); ok {
		t.Error("CheckFCS of a 3-byte frame should fail")
	}
	// A 4-byte frame is an empty payload plus FCS; valid only if it is the
	// CRC of the empty string.
	if _, ok := CheckFCS(AppendFCSInto(nil, nil)); !ok {
		t.Error("CheckFCS of FCS-only frame with valid CRC should pass")
	}
}
