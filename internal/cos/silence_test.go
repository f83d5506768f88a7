package cos

import (
	"testing"

	"cos/internal/ofdm"
)

func TestInsertSilencesAndMaskPositions(t *testing.T) {
	g := ofdm.NewGrid(4)
	for s := 0; s < 4; s++ {
		row, err := g.Symbol(s)
		if err != nil {
			t.Fatal(err)
		}
		for d := range row {
			row[d] = 1
		}
	}
	positions := []Pos{{Sym: 0, SC: 5}, {Sym: 2, SC: 5}, {Sym: 3, SC: 9}}
	mask, err := InsertSilencesInto(nil, g, positions)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range positions {
		v, _ := g.At(p.Sym, p.SC)
		if v != 0 {
			t.Errorf("position %+v not silenced", p)
		}
		if !mask[p.Sym][p.SC] {
			t.Errorf("mask missing %+v", p)
		}
	}
	// Untouched positions stay active.
	if v, _ := g.At(1, 5); v != 1 {
		t.Error("untouched symbol modified")
	}
	got := MaskPositions(mask, []int{5, 9})
	if len(got) != 3 {
		t.Fatalf("MaskPositions returned %d entries", len(got))
	}
	// Traversal order: slot-major.
	want := []Pos{{0, 5}, {2, 5}, {3, 9}}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("MaskPositions[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
	// Restricting the subcarrier set filters positions.
	if got := MaskPositions(mask, []int{9}); len(got) != 1 || got[0] != (Pos{3, 9}) {
		t.Errorf("filtered MaskPositions = %v", got)
	}
}

func TestInsertSilencesOutOfRange(t *testing.T) {
	g := ofdm.NewGrid(2)
	if _, err := InsertSilencesInto(nil, g, []Pos{{Sym: 5, SC: 0}}); err == nil {
		t.Error("out-of-range symbol should error")
	}
	if _, err := InsertSilencesInto(nil, g, []Pos{{Sym: 0, SC: 99}}); err == nil {
		t.Error("out-of-range subcarrier should error")
	}
}
