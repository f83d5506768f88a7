package channel

import (
	"math/cmplx"
	"strings"
	"testing"
)

func TestPositionStrings(t *testing.T) {
	cases := map[Position]string{
		PositionA:    "Position A",
		PositionB:    "Position B",
		PositionC:    "Position C",
		PositionFlat: "Flat",
		Position(9):  "Position(9)",
	}
	for p, want := range cases {
		if got := p.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

// TestParsePosition pins the one name parser the CLI and the job specs
// share: every canonical Name reads back in any case, and an unknown name
// is rejected with the valid ones listed.
func TestParsePosition(t *testing.T) {
	names := map[Position]string{PositionA: "A", PositionB: "B", PositionC: "C", PositionFlat: "flat"}
	for p, name := range names {
		if got := p.Name(); got != name {
			t.Errorf("%v.Name() = %q, want %q", p, got, name)
		}
		for _, spelling := range []string{name, strings.ToLower(name), strings.ToUpper(name)} {
			if got, err := ParsePosition(spelling); err != nil || got != p {
				t.Errorf("ParsePosition(%q) = %v, %v; want %v", spelling, got, err, p)
			}
		}
	}
	for _, bad := range []string{"Z", "", "Position A"} {
		_, err := ParsePosition(bad)
		if err == nil || !strings.Contains(err.Error(), "want A, B, C or flat") {
			t.Errorf("ParsePosition(%q) error = %v, want one listing the valid names", bad, err)
		}
	}
}

func TestPositionConfigs(t *testing.T) {
	for _, p := range Positions() {
		cfg, err := p.Config(false)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if cfg.DopplerHz != 0 {
			t.Errorf("%v static config has Doppler", p)
		}
		m, err := p.Config(true)
		if err != nil {
			t.Fatal(err)
		}
		if m.DopplerHz != EffectiveIndoorDopplerHz {
			t.Errorf("%v mobile config Doppler = %v", p, m.DopplerHz)
		}
	}
	if _, err := Position(0).Config(false); err == nil {
		t.Error("unknown position should error")
	}
	flat, err := PositionFlat.Config(false)
	if err != nil || flat.NumTaps != 1 {
		t.Errorf("flat config = %+v, %v", flat, err)
	}
}

func TestPositionReproducible(t *testing.T) {
	a1, err := PositionA.New(false)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := PositionA.New(false)
	if err != nil {
		t.Fatal(err)
	}
	t1, t2 := a1.TapsInto(nil, 0), a2.TapsInto(nil, 0)
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatal("PositionA.New is not deterministic")
		}
	}
}

func TestPositionsDistinct(t *testing.T) {
	a, _ := PositionA.New(false)
	b, _ := PositionB.New(false)
	ta, tb := a.TapsInto(nil, 0), b.TapsInto(nil, 0)
	same := true
	for i := 0; i < len(tb) && i < len(ta); i++ {
		if cmplx.Abs(ta[i]-tb[i]) > 1e-12 {
			same = false
		}
	}
	if same {
		t.Error("positions A and B produced identical channels")
	}
}

func TestPositionVariants(t *testing.T) {
	v1, err := PositionA.NewVariant(false, 1)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := PositionA.NewVariant(false, 2)
	if err != nil {
		t.Fatal(err)
	}
	t1, t2 := v1.TapsInto(nil, 0), v2.TapsInto(nil, 0)
	same := true
	for i := range t1 {
		if cmplx.Abs(t1[i]-t2[i]) > 1e-12 {
			same = false
		}
	}
	if same {
		t.Error("variants produced identical channels")
	}
	if _, err := Position(0).NewVariant(false, 1); err == nil {
		t.Error("unknown position variant should error")
	}
}
