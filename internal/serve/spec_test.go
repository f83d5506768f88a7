package serve

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// goldenSpec is the fixture pinned by testdata/spec_canonical_v1.golden: a
// link spec with a few explicit fields, everything else defaulted.
func goldenSpec() Spec {
	return Spec{Kind: KindLink, Seed: 7, Packets: 4, SNRdB: 18}
}

// TestSpecCanonicalGolden pins the canonical encoding byte-for-byte. If
// this fails the encoding changed: every stored digest (cache entries, WAL
// records) is silently re-keyed, so bump SpecSchemaVersion and regenerate
// the golden deliberately rather than updating it to "fix" the test.
func TestSpecCanonicalGolden(t *testing.T) {
	got, err := goldenSpec().Canonical()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "spec_canonical_v1.golden")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want = bytes.TrimRight(want, "\n")
	if !bytes.Equal(got, want) {
		t.Fatalf("canonical encoding drifted from %s:\n got: %s\nwant: %s", path, got, want)
	}
}

// TestSpecDigestPinned pins the digest of the golden spec. A drift here
// without a SpecSchemaVersion bump invalidates every durable store.
func TestSpecDigestPinned(t *testing.T) {
	const want = "be08ab14ffb3d1d0f4bec037f4382b6c7f2b2629babd54bfcf6a5eca89a73333"
	if got := goldenSpec().Digest(); got != want {
		t.Fatalf("Digest() = %s, want %s", got, want)
	}
}

// TestSpecDigestEquality is the API contract: two specs are equal iff
// their digests are equal. Defaults collapse, case-folded positions
// collapse, and every semantic field separates.
func TestSpecDigestEquality(t *testing.T) {
	base := Spec{Kind: KindLink}
	explicitDefaults := Spec{
		Kind: KindLink, Seed: 1, SNRdB: 18, Position: "B", PayloadBytes: 1024,
		Packets: 100, ControlBits: 32, StreamBits: 24, Sends: 10,
		Stations: 3, Rounds: 100, Scale: 0.1, Workers: 1,
	}
	if base.Digest() != explicitDefaults.Digest() {
		t.Error("defaulted and explicitly-defaulted specs must share a digest")
	}
	lower := Spec{Kind: KindLink, Position: "b"}
	if base.Digest() != lower.Digest() {
		t.Error(`position "b" and "B" name the same geometry and must share a digest`)
	}
	flat := Spec{Kind: KindLink, Position: "FLAT"}
	if flat.Digest() != (Spec{Kind: KindLink, Position: "flat"}).Digest() {
		t.Error(`position "FLAT" and "flat" must share a digest`)
	}

	distinct := []Spec{
		base,
		{Kind: KindStream},
		{Kind: KindLink, Seed: 2},
		{Kind: KindLink, TimeoutMS: 5000},
		{Kind: KindLink, SNRdB: 12},
		{Kind: KindLink, Position: "C"},
		{Kind: KindLink, Mobile: true},
		{Kind: KindLink, PayloadBytes: 512},
		{Kind: KindLink, Packets: 5},
		{Kind: KindLink, ControlBits: 16},
		{Kind: KindFigureTask, Figure: "fig2"},
		{Kind: KindFigureTask, Figure: "fig2", Scale: 0.5},
	}
	seen := map[string]int{}
	for i, s := range distinct {
		d := s.Digest()
		if len(d) != digestHexLen {
			t.Fatalf("spec %d: digest %q is not %d hex chars", i, d, digestHexLen)
		}
		if prev, dup := seen[d]; dup {
			t.Errorf("specs %d and %d collide on digest %s", prev, i, d)
		}
		seen[d] = i
	}
}

// TestControlBitsZeroNormalizesToDefault pins that control_bits 0 is the
// absent value: a link job normalizes it to 32 and shares that digest.
func TestControlBitsZeroNormalizesToDefault(t *testing.T) {
	zero := Spec{Kind: KindLink, ControlBits: 0}
	if got := zero.normalized().ControlBits; got != 32 {
		t.Errorf("normalized ControlBits = %d, want 32", got)
	}
	if zero.Digest() != (Spec{Kind: KindLink, ControlBits: 32}).Digest() {
		t.Error("control_bits 0 and 32 must share a link job's digest")
	}
}

// TestDecodeSpecStrict pins the DisallowUnknownFields contract: a
// misspelled field is an error, never a silent default.
func TestDecodeSpecStrict(t *testing.T) {
	if _, err := DecodeSpec([]byte(`{"kind":"link","packtes":5}`)); err == nil {
		t.Error("DecodeSpec accepted an unknown field")
	}
	if _, err := DecodeSpec([]byte(`{"kind":"link"} trailing`)); err == nil {
		t.Error("DecodeSpec accepted trailing data")
	}
	if _, err := DecodeSpec([]byte(`{"kind":`)); err == nil {
		t.Error("DecodeSpec accepted truncated JSON")
	}
	s, err := DecodeSpec([]byte(`{"kind":"link","packets":5}`))
	if err != nil {
		t.Fatalf("DecodeSpec rejected a valid spec: %v", err)
	}
	if s.Kind != KindLink || s.Packets != 5 {
		t.Fatalf("DecodeSpec = %+v", s)
	}
}

// TestDecodeCanonicalRoundTrip proves Canonical -> DecodeCanonical is the
// identity on normalized specs, and that foreign schema versions are
// refused instead of silently mis-keyed.
func TestDecodeCanonicalRoundTrip(t *testing.T) {
	in := Spec{Kind: KindStream, Seed: 3, StreamBits: 48, Position: "c"}
	b, err := in.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeCanonical(b)
	if err != nil {
		t.Fatal(err)
	}
	if out != in.normalized() {
		t.Fatalf("round trip = %+v, want %+v", out, in.normalized())
	}
	if out.Digest() != in.Digest() {
		t.Fatal("round-tripped spec changed digest")
	}
	if _, err := DecodeCanonical([]byte(`{"spec_schema":99,"spec":{"kind":"link"}}`)); err == nil {
		t.Error("DecodeCanonical accepted an unknown schema version")
	}
}

// mapCanonical is the original map-based canonical encoder, kept as the
// oracle for Canonical's struct encoding: maps marshal with sorted keys,
// and every field is present except scenario (non-default only) and task
// (figure_task only).
func mapCanonical(s Spec) ([]byte, error) {
	n := s.normalized()
	fields := map[string]any{
		"kind":          string(n.Kind),
		"seed":          n.Seed,
		"timeout_ms":    n.TimeoutMS,
		"snr_db":        n.SNRdB,
		"position":      n.Position,
		"mobile":        n.Mobile,
		"payload_bytes": n.PayloadBytes,
		"packets":       n.Packets,
		"control_bits":  n.ControlBits,
		"stream_bits":   n.StreamBits,
		"sends":         n.Sends,
		"stations":      n.Stations,
		"rounds":        n.Rounds,
		"figure":        n.Figure,
		"scale":         n.Scale,
		"workers":       n.Workers,
	}
	if n.Scenario != "" {
		fields["scenario"] = n.Scenario
	}
	if n.Kind == KindFigureTask {
		fields["task"] = n.Task
	}
	return json.Marshal(map[string]any{
		"spec":        fields,
		"spec_schema": SpecSchemaVersion,
	})
}

// BenchmarkCanonical costs one Canonical call, which every submission
// (cache hits included) pays to compute its digest.
func BenchmarkCanonical(b *testing.B) {
	s := Spec{Kind: KindFigureTask, Figure: "fig3", Task: 2, Scale: 0.05, Scenario: "pulse"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.Canonical(); err != nil {
			b.Fatal(err)
		}
	}
}

// FuzzDecodeSpec: DecodeSpec reads untrusted request bodies, so no input
// may panic it, and any spec it accepts must have a stable content
// address: Canonical matches the map-based oracle byte for byte, and
// Canonical -> DecodeCanonical -> Canonical reproduces the same bytes and
// the same digest.
func FuzzDecodeSpec(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "spec_canonical_v1.golden"))
	if err != nil {
		f.Fatal(err)
	}
	golden = bytes.TrimRight(golden, "\n")
	var wrap struct {
		Spec json.RawMessage `json:"spec"`
	}
	if err := json.Unmarshal(golden, &wrap); err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(wrap.Spec))
	f.Add(golden)
	f.Add([]byte(`{"kind":"figure_task","figure":"fig3","task":2,"scale":0.05}`))
	f.Add([]byte(`{"kind":"figure_task","figure":"fig2"}`))
	f.Add([]byte(`{"kind":"link","position":"c","scenario":"pulse:40,160,0.004"}`))
	f.Add([]byte(`{"kind":"stream","task":3,"scenario":"default","mobile":true,"timeout_ms":5000}`))
	f.Add([]byte(`{"kind":"wlan","figure":"<fig&\u2028>","scale":1e-7,"snr_db":-3.25,"seed":-9}`))
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSpec(data)
		if err != nil {
			return
		}
		first, err := s.Canonical()
		if err != nil {
			t.Fatalf("Canonical of accepted spec %+v: %v", s, err)
		}
		want, err := mapCanonical(s)
		if err != nil {
			t.Fatalf("map oracle of accepted spec %+v: %v", s, err)
		}
		if !bytes.Equal(first, want) {
			t.Fatalf("Canonical differs from the map oracle:\n got: %s\nwant: %s", first, want)
		}
		back, err := DecodeCanonical(first)
		if err != nil {
			t.Fatalf("DecodeCanonical(%s): %v", first, err)
		}
		second, err := back.Canonical()
		if err != nil {
			t.Fatalf("Canonical of round-tripped spec %+v: %v", back, err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("canonical bytes drifted:\n first: %s\nsecond: %s", first, second)
		}
		if back.Digest() != s.Digest() {
			t.Fatalf("digest drifted across the canonical round trip: %s", first)
		}
	})
}

func TestIsDigest(t *testing.T) {
	d := (Spec{Kind: KindLink}).Digest()
	if !IsDigest(d) {
		t.Fatalf("IsDigest(%q) = false for a real digest", d)
	}
	for _, bad := range []string{"", "job-000001", d[:63], d + "0", "G" + d[1:]} {
		if IsDigest(bad) {
			t.Errorf("IsDigest(%q) = true", bad)
		}
	}
}
