package cos

import (
	"math/rand"
	"testing"
	"testing/quick"

	"cos/internal/bits"
)

func TestFrameControlRoundTrip(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw) // 0..255
		payload := make([]byte, n)
		for i := range payload {
			payload[i] = byte(rng.Intn(2))
		}
		framed, err := FrameControlInto(nil, payload)
		if err != nil {
			return false
		}
		got, ok := ParseControl(framed)
		return ok && bits.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestParseControlTrailingGarbage(t *testing.T) {
	// Extraction often returns extra trailing intervals; framing must
	// ignore them.
	payload := []byte{1, 0, 1, 1, 0, 0, 1, 0}
	framed, err := FrameControlInto(nil, payload)
	if err != nil {
		t.Fatal(err)
	}
	framed = append(framed, 1, 1, 0, 1, 0, 0, 0, 1)
	got, ok := ParseControl(framed)
	if !ok || !bits.Equal(got, payload) {
		t.Errorf("trailing garbage broke parsing: %v %v", got, ok)
	}
}

func TestParseControlDetectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	payload := make([]byte, 40)
	for i := range payload {
		payload[i] = byte(rng.Intn(2))
	}
	framed, err := FrameControlInto(nil, payload)
	if err != nil {
		t.Fatal(err)
	}
	detected := 0
	const trials = 200
	for trial := 0; trial < trials; trial++ {
		corrupt := append([]byte(nil), framed...)
		// Flip 1-3 random bits.
		for f := 0; f <= rng.Intn(3); f++ {
			corrupt[rng.Intn(len(corrupt))] ^= 1
		}
		got, ok := ParseControl(corrupt)
		if !ok || !bits.Equal(got, payload) {
			detected++
		}
	}
	// CRC-8 misses ~1/256 of random corruptions; anything near that is fine.
	if detected < trials*95/100 {
		t.Errorf("corruption detected in only %d/%d trials", detected, trials)
	}
}

func TestParseControlShortInput(t *testing.T) {
	if _, ok := ParseControl(make([]byte, 10)); ok {
		t.Error("short stream should fail")
	}
	// Header says 100 bits but stream carries fewer.
	framed, _ := FrameControlInto(nil, make([]byte, 100))
	if _, ok := ParseControl(framed[:50]); ok {
		t.Error("truncated stream should fail")
	}
}

func TestFrameControlValidation(t *testing.T) {
	if _, err := FrameControlInto(nil, make([]byte, 256)); err == nil {
		t.Error("oversized payload should error")
	}
	if _, err := FrameControlInto(nil, []byte{2}); err == nil {
		t.Error("non-bit payload should error")
	}
	// Empty payload is legal (a bare heartbeat).
	framed, err := FrameControlInto(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := ParseControl(framed)
	if !ok || len(got) != 0 {
		t.Error("empty payload roundtrip failed")
	}
}

func TestPadToInterval(t *testing.T) {
	in := make([]byte, 18)
	out, err := PadToIntervalInto(nil, in, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 20 {
		t.Errorf("padded length %d, want 20", len(out))
	}
	if _, err := PadToIntervalInto(nil, in, 0); err == nil {
		t.Error("k=0 should error")
	}
	// Already aligned stays put.
	out, err = PadToIntervalInto(nil, make([]byte, 16), 4)
	if err != nil || len(out) != 16 {
		t.Errorf("aligned input changed: %d, %v", len(out), err)
	}
}

func TestFramedBits(t *testing.T) {
	// 40 payload + 16 overhead = 56, already a multiple of 4.
	if got := FramedBits(40, 4); got != 56 {
		t.Errorf("FramedBits(40,4) = %d, want 56", got)
	}
	// 39 + 16 = 55 -> padded to 56.
	if got := FramedBits(39, 4); got != 56 {
		t.Errorf("FramedBits(39,4) = %d, want 56", got)
	}
	if got := FramedBits(0, 1); got != 16 {
		t.Errorf("FramedBits(0,1) = %d, want 16", got)
	}
}
