package channel

import (
	"math/cmplx"
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
