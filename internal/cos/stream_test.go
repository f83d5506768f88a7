package cos

import (
	"math/rand"
	"testing"
	"testing/quick"

	"cos/internal/bits"
)

func TestFragmentRoundTrip(t *testing.T) {
	f := func(seed int64, sizeRaw uint16, maxRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		size := int(sizeRaw) % 400
		maxFrag := 16 + int(maxRaw)%64
		payload := make([]byte, size)
		for i := range payload {
			payload[i] = byte(rng.Intn(2))
		}
		var fr Fragmenter
		frags, err := fr.Split(payload, maxFrag)
		if err != nil {
			// Only legitimate failure: too many fragments.
			return (size+maxFrag-fragHeaderLen-1)/(maxFrag-fragHeaderLen) > MaxFragments
		}
		var re Reassembler
		for i, frag := range frags {
			if len(frag) > maxFrag {
				return false
			}
			got, done, err := re.Push(frag)
			if err != nil {
				return false
			}
			if done != (i == len(frags)-1) {
				return false
			}
			if done {
				return bits.Equal(got, payload)
			}
		}
		return size == 0 // empty payload completes on its single fragment
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFragmenterValidation(t *testing.T) {
	var f Fragmenter
	if _, err := f.Split([]byte{2}, 32); err == nil {
		t.Error("non-bit payload should error")
	}
	if _, err := f.Split(make([]byte, 10), fragHeaderLen); err == nil {
		t.Error("fragment size leaving no payload room should error")
	}
	if _, err := f.Split(make([]byte, 10000), 12); err == nil {
		t.Error("payload needing too many fragments should error")
	}
}

func TestFragmenterIDsCycle(t *testing.T) {
	var f Fragmenter
	seen := map[int]bool{}
	for i := 0; i < 16; i++ {
		frags, err := f.Split([]byte{1}, 32)
		if err != nil {
			t.Fatal(err)
		}
		id := 0
		for b := 0; b < fragIDBits; b++ {
			id = id<<1 | int(frags[0][b])
		}
		if seen[id] {
			t.Fatalf("message ID %d repeated within 16 messages", id)
		}
		seen[id] = true
	}
}

func TestReassemblerAbortsOnGap(t *testing.T) {
	var f Fragmenter
	payload := make([]byte, 100)
	frags, err := f.Split(payload, 40)
	if err != nil {
		t.Fatal(err)
	}
	if len(frags) < 3 {
		t.Fatalf("want >=3 fragments, got %d", len(frags))
	}
	var re Reassembler
	if _, _, err := re.Push(frags[0]); err != nil {
		t.Fatal(err)
	}
	// Skip fragment 1: fragment 2 must abort the message.
	if _, done, err := re.Push(frags[2]); err == nil || done {
		t.Error("gap should abort the message with an error")
	}
	if re.active {
		t.Error("aborted message still marked in progress")
	}
}

func TestReassemblerNewMessagePreemptsPartial(t *testing.T) {
	var f Fragmenter
	first, err := f.Split(make([]byte, 100), 40)
	if err != nil {
		t.Fatal(err)
	}
	secondPayload := []byte{1, 0, 1}
	second, err := f.Split(secondPayload, 40)
	if err != nil {
		t.Fatal(err)
	}
	var re Reassembler
	if _, _, err := re.Push(first[0]); err != nil {
		t.Fatal(err)
	}
	got, done, err := re.Push(second[0])
	if err != nil || !done {
		t.Fatalf("new single-fragment message should complete: %v %v", done, err)
	}
	if !bits.Equal(got, secondPayload) {
		t.Errorf("payload %v, want %v", got, secondPayload)
	}
}

func TestReassemblerStrayFragment(t *testing.T) {
	var f Fragmenter
	frags, err := f.Split(make([]byte, 100), 40)
	if err != nil {
		t.Fatal(err)
	}
	var re Reassembler
	// Starting mid-message (idx != 0) is a stray.
	if _, _, err := re.Push(frags[1]); err == nil {
		t.Error("mid-message fragment with no context should error")
	}
	if _, _, err := re.Push(make([]byte, 3)); err == nil {
		t.Error("too-short fragment should error")
	}
}

// TestStreamOverLink pushes a 200-bit control message through the real
// pipeline across multiple packets.
func TestStreamOverLink(t *testing.T) {
	// Uses the internal packages directly to keep this in package cos;
	// the public-API version lives in the root package tests.
	rng := rand.New(rand.NewSource(501))
	payload := make([]byte, 200)
	for i := range payload {
		payload[i] = byte(rng.Intn(2))
	}
	var f Fragmenter
	frags, err := f.Split(payload, 60)
	if err != nil {
		t.Fatal(err)
	}
	var re Reassembler
	var got []byte
	for _, frag := range frags {
		// Frame and immediately parse (the Link does this over the air;
		// here we exercise the composition).
		framed, err := FrameControlInto(nil, frag)
		if err != nil {
			t.Fatal(err)
		}
		parsed, ok := ParseControl(framed)
		if !ok {
			t.Fatal("framed fragment failed to parse")
		}
		msg, done, err := re.Push(parsed)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			got = msg
		}
	}
	if !bits.Equal(got, payload) {
		t.Fatal("stream roundtrip mismatch")
	}
}
