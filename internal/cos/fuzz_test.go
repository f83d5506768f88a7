package cos

import (
	"testing"

	"cos/internal/bits"
)

// FuzzParseControl: arbitrary bit streams must never panic and any frame
// that parses must re-frame to a prefix of itself.
func FuzzParseControl(f *testing.F) {
	seed, _ := FrameControlInto(nil, []byte{1, 0, 1, 1})
	f.Add(toByteString(seed))
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 1, 0, 1})
	f.Fuzz(func(t *testing.T, raw []byte) {
		stream := make([]byte, len(raw))
		for i, b := range raw {
			stream[i] = b & 1
		}
		payload, ok := ParseControl(stream)
		if !ok {
			return
		}
		framed, err := FrameControlInto(nil, payload)
		if err != nil {
			t.Fatalf("parsed payload failed to re-frame: %v", err)
		}
		if len(framed) > len(stream) || !bits.Equal(stream[:len(framed)], framed) {
			t.Fatalf("re-framed message is not a prefix of the stream")
		}
	})
}

func toByteString(bits []byte) []byte {
	out := make([]byte, len(bits))
	copy(out, bits)
	return out
}

// FuzzIntervalRoundTrip: any bit payload (multiple of k) must survive
// encode -> layout -> extract -> decode unchanged.
func FuzzIntervalRoundTrip(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 0, 1, 1, 0}, uint8(4))
	f.Add([]byte{1, 1, 1, 1}, uint8(2))
	f.Fuzz(func(t *testing.T, raw []byte, kRaw uint8) {
		k := int(kRaw)%8 + 1
		msg := make([]byte, len(raw)/k*k)
		for i := range msg {
			msg[i] = raw[i] & 1
		}
		if len(msg) > 64 {
			msg = msg[:64/k*k]
		}
		iv, err := EncodeIntervalsInto(nil, msg, k)
		if err != nil {
			t.Fatalf("EncodeIntervalsInto: %v", err)
		}
		ctrl := []int{3, 17, 31, 45}
		numSym := 1 + (1+len(iv)*(1<<k))/len(ctrl) + 1
		pos, err := LayoutInto(nil, iv, numSym, ctrl)
		if err != nil {
			t.Fatalf("LayoutInto with ample capacity: %v", err)
		}
		mask := GrowMask(nil, numSym)
		for _, p := range pos {
			mask[p.Sym][p.SC] = true
		}
		gotIv, err := ExtractIntervalsInto(nil, mask, ctrl)
		if err != nil {
			t.Fatalf("ExtractIntervalsInto: %v", err)
		}
		got, err := DecodeIntervalsInto(nil, gotIv, k)
		if err != nil {
			t.Fatalf("DecodeIntervalsInto: %v", err)
		}
		if !bits.Equal(got, msg) {
			t.Fatalf("roundtrip mismatch: %v -> %v", msg, got)
		}
	})
}
