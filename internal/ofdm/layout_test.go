package ofdm

import (
	"testing"
)

func TestDataIndices(t *testing.T) {
	idx := make([]int, NumData)
	for i := range idx {
		k, err := DataIndex(i)
		if err != nil {
			t.Fatal(err)
		}
		idx[i] = k
	}
	seen := map[int]bool{}
	for _, k := range idx {
		if k == 0 {
			t.Error("DC subcarrier used for data")
		}
		if k < -26 || k > 26 {
			t.Errorf("subcarrier %d outside occupied band", k)
		}
		for _, p := range PilotIndices {
			if k == p {
				t.Errorf("pilot subcarrier %d used for data", k)
			}
		}
		if seen[k] {
			t.Errorf("subcarrier %d repeated", k)
		}
		seen[k] = true
	}
	// Ascending order.
	for i := 1; i < len(idx); i++ {
		if idx[i] <= idx[i-1] {
			t.Error("data indices not ascending")
		}
	}
}

func TestDataIndexBounds(t *testing.T) {
	if _, err := DataIndex(-1); err == nil {
		t.Error("want error for -1")
	}
	if _, err := DataIndex(48); err == nil {
		t.Error("want error for 48")
	}
	k, err := DataIndex(0)
	if err != nil || k != -26 {
		t.Errorf("DataIndex(0) = %d, %v; want -26", k, err)
	}
	k, err = DataIndex(47)
	if err != nil || k != 26 {
		t.Errorf("DataIndex(47) = %d, %v; want 26", k, err)
	}
}

func TestBinMapping(t *testing.T) {
	cases := map[int]int{0: 0, 1: 1, 26: 26, -1: 63, -26: 38, -32: 32, 31: 31}
	for logical, want := range cases {
		got, err := Bin(logical)
		if err != nil {
			t.Fatalf("Bin(%d): %v", logical, err)
		}
		if got != want {
			t.Errorf("Bin(%d) = %d, want %d", logical, got, want)
		}
	}
	if _, err := Bin(32); err == nil {
		t.Error("Bin(32) should error")
	}
	if _, err := Bin(-33); err == nil {
		t.Error("Bin(-33) should error")
	}
}

func TestPilotPolarityKnownPrefix(t *testing.T) {
	// 17.3.5.9: p_0..p_10 = 1,1,1,1,-1,-1,-1,1,-1,-1,-1.
	want := []int8{1, 1, 1, 1, -1, -1, -1, 1, -1, -1, -1}
	for n, w := range want {
		if got := PilotPolarity(n); got != w {
			t.Errorf("p_%d = %d, want %d", n, got, w)
		}
	}
}

func TestPilotPolarityPeriodic(t *testing.T) {
	for n := 0; n < 127; n++ {
		if PilotPolarity(n) != PilotPolarity(n+127) {
			t.Fatalf("polarity not periodic at n=%d", n)
		}
	}
}

func TestPilotValue(t *testing.T) {
	// Symbol 0 has polarity +1; pilot 3 carries -1.
	v, err := PilotValue(3, 0)
	if err != nil || v != -1 {
		t.Errorf("PilotValue(3,0) = %v, %v; want -1", v, err)
	}
	v, err = PilotValue(0, 4) // p_4 = -1
	if err != nil || v != -1 {
		t.Errorf("PilotValue(0,4) = %v, %v; want -1", v, err)
	}
	if _, err := PilotValue(4, 0); err == nil {
		t.Error("pilot index 4 should error")
	}
}
