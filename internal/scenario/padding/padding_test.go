package padding

import (
	"bytes"
	"math/rand"
	"testing"

	icos "cos/internal/cos"
	"cos/internal/phy"
)

// loopback builds a packet, embeds wire into its pad, runs the noiseless
// receive chain, and returns the extracted pad bits.
func loopback(t *testing.T, mode phy.Mode, psdu, wire []byte, seed byte) []byte {
	t.Helper()
	e := New()
	tx, err := phy.BuildPacket(phy.TxConfig{Mode: mode, ScramblerSeed: seed}, psdu)
	if err != nil {
		t.Fatal(err)
	}
	mask, n, err := e.Embed(tx, nil, wire, 4)
	if err != nil {
		t.Fatal(err)
	}
	if mask != nil || n != 0 {
		t.Fatalf("Embed returned mask=%v silences=%d; padding must insert none", mask, n)
	}
	samples, err := tx.Samples()
	if err != nil {
		t.Fatal(err)
	}
	fe, err := phy.RunFrontEnd(samples)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := fe.Decode(phy.DecodeConfig{Mode: mode, PSDULen: len(psdu), ScramblerSeed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec.PSDU, psdu) {
		t.Fatal("embedding the pad corrupted the data payload")
	}
	got, err := e.Extract(dec, nil, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestRoundTrip pins the core claim: control bits written into the pad
// come back bit-exact through the noiseless PHY, the data payload is
// untouched, and bits past the message decode as keystream (non-panicking
// garbage the caller prefix-matches, like trailing silence intervals).
func TestRoundTrip(t *testing.T) {
	mode, err := phy.ModeByRate(24)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for _, psduLen := range []int{100, 256, 1024} {
		psdu := make([]byte, psduLen)
		rng.Read(psdu)
		e := New()
		capBits := e.Capacity(mode, psduLen, 0, 0)
		if capBits <= 0 {
			t.Fatalf("capacity %d for psduLen %d; the pad must be usable", capBits, psduLen)
		}
		wire := make([]byte, capBits/2)
		for i := range wire {
			wire[i] = byte(rng.Intn(2))
		}
		got := loopback(t, mode, psdu, wire, 0)
		if len(got) != capBits {
			t.Fatalf("Extract returned %d bits, want the full %d-bit pad", len(got), capBits)
		}
		if !bytes.Equal(got[:len(wire)], wire) {
			t.Fatalf("pad round trip corrupted the message (psduLen %d)", psduLen)
		}
	}
}

// TestRoundTripNonDefaultSeed pins the keystream handling: a non-default
// scrambler seed changes the key on both sides coherently.
func TestRoundTripNonDefaultSeed(t *testing.T) {
	mode, err := phy.ModeByRate(12)
	if err != nil {
		t.Fatal(err)
	}
	psdu := make([]byte, 197) // leaves a 28-bit pad at 12 Mbps
	rand.New(rand.NewSource(9)).Read(psdu)
	wire := []byte{1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0}
	got := loopback(t, mode, psdu, wire, 0x2A)
	if !bytes.Equal(got[:len(wire)], wire) {
		t.Fatal("round trip with ScramblerSeed 0x2A corrupted the message")
	}
}

// TestEmbedRejects pins the error contract: oversized messages and
// non-bit bytes are refused before the grid is touched.
func TestEmbedRejects(t *testing.T) {
	mode, err := phy.ModeByRate(24)
	if err != nil {
		t.Fatal(err)
	}
	psdu := make([]byte, 256)
	tx, err := phy.BuildPacket(phy.TxConfig{Mode: mode}, psdu)
	if err != nil {
		t.Fatal(err)
	}
	e := New()
	capBits := e.Capacity(mode, len(psdu), 0, 0)
	if _, _, err := e.Embed(tx, nil, make([]byte, capBits+1), 4); err == nil {
		t.Error("Embed accepted a message larger than the pad")
	}
	if _, _, err := e.Embed(tx, nil, []byte{1, 2}, 4); err == nil {
		t.Error("Embed accepted a non-bit control byte")
	}
}

// TestInterfaceContract pins the scheme's interface answers: unbudgeted,
// bit-aligned, maskless.
func TestInterfaceContract(t *testing.T) {
	e := New()
	if e.Budgeted() {
		t.Error("padding reported Budgeted")
	}
	if e.Align(4) != 1 || e.Align(1) != 1 {
		t.Error("padding must align to single bits")
	}
	mask, err := e.Mask(nil, icos.Detector{}, nil)
	if err != nil || mask != nil {
		t.Errorf("Mask = %v, %v; want nil, nil", mask, err)
	}
}

// TestCapacityMatchesPadLayout pins the 802.11a arithmetic: the pad is the
// last symbol's slack minus the 6 reserved termination bits.
func TestCapacityMatchesPadLayout(t *testing.T) {
	e := New()
	for _, rate := range []int{6, 12, 24, 36, 54} {
		mode, err := phy.ModeByRate(rate)
		if err != nil {
			t.Fatal(err)
		}
		for _, psduLen := range []int{64, 100, 1024} {
			total := mode.SymbolsForPSDU(psduLen) * mode.NDBPS()
			want := total - (serviceBits + 8*psduLen + tailBits) - tailBits
			if want < 0 {
				want = 0
			}
			if got := e.Capacity(mode, psduLen, 8, 4); got != want {
				t.Errorf("rate %d psdu %d: capacity %d, want %d", rate, psduLen, got, want)
			}
		}
	}
}
