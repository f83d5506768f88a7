package phy

import (
	"testing"

	"cos/internal/coding"
	"cos/internal/modulation"
)

func TestModeTable(t *testing.T) {
	ms := Modes()
	if len(ms) != 8 {
		t.Fatalf("Modes() returned %d modes, want 8", len(ms))
	}
	// NDBPS values fixed by the standard.
	wantNDBPS := map[int]int{6: 24, 9: 36, 12: 48, 18: 72, 24: 96, 36: 144, 48: 192, 54: 216}
	wantNCBPS := map[int]int{6: 48, 9: 48, 12: 96, 18: 96, 24: 192, 36: 192, 48: 288, 54: 288}
	for _, m := range ms {
		if !m.Valid() {
			t.Errorf("mode %v invalid", m)
		}
		if got := m.NDBPS(); got != wantNDBPS[m.RateMbps] {
			t.Errorf("%v NDBPS = %d, want %d", m, got, wantNDBPS[m.RateMbps])
		}
		if got := m.NCBPS(); got != wantNCBPS[m.RateMbps] {
			t.Errorf("%v NCBPS = %d, want %d", m, got, wantNCBPS[m.RateMbps])
		}
	}
	// Ascending rates and thresholds.
	for i := 1; i < len(ms); i++ {
		if ms[i].RateMbps <= ms[i-1].RateMbps {
			t.Error("modes not in ascending rate order")
		}
		if ms[i].MinSNRdB <= ms[i-1].MinSNRdB {
			t.Error("SNR thresholds not ascending")
		}
	}
}

func TestModeByRate(t *testing.T) {
	m, err := ModeByRate(24)
	if err != nil {
		t.Fatal(err)
	}
	if m.Modulation != modulation.QAM16 || m.CodeRate != coding.Rate1_2 {
		t.Errorf("24 Mb/s = %v, want (16QAM,1/2)", m)
	}
	// The paper's anchor: 24 Mb/s requires 12 dB.
	if m.MinSNRdB != 12.0 {
		t.Errorf("24 Mb/s MinSNRdB = %v, want 12", m.MinSNRdB)
	}
	if _, err := ModeByRate(33); err == nil {
		t.Error("rate 33 should error")
	}
}

func TestEvaluatedModes(t *testing.T) {
	ms := EvaluatedModes()
	if len(ms) != 6 {
		t.Fatalf("EvaluatedModes returned %d, want 6", len(ms))
	}
	if ms[0].RateMbps != 12 || ms[5].RateMbps != 54 {
		t.Errorf("EvaluatedModes range = %d..%d", ms[0].RateMbps, ms[5].RateMbps)
	}
}

func TestSelectMode(t *testing.T) {
	cases := []struct {
		snr  float64
		want int
	}{
		{0, 6}, {4.0, 6}, {5.4, 6}, {5.5, 9}, {7.1, 12},
		{9.4, 12}, {12.0, 24}, {15.0, 24}, {16.0, 36},
		{21.9, 48}, {22.0, 54}, {30, 54},
	}
	for _, c := range cases {
		if got := SelectMode(c.snr); got.RateMbps != c.want {
			t.Errorf("SelectMode(%v) = %d Mb/s, want %d", c.snr, got.RateMbps, c.want)
		}
	}
}

func TestSymbolsForPSDU(t *testing.T) {
	m, _ := ModeByRate(24) // NDBPS 96
	// 1024-byte PSDU: 16 + 8192 + 6 = 8214 bits -> ceil(8214/96) = 86.
	if got := m.SymbolsForPSDU(1024); got != 86 {
		t.Errorf("SymbolsForPSDU(1024) = %d, want 86", got)
	}
	if got := m.SymbolsForPSDU(0); got != 1 {
		t.Errorf("SymbolsForPSDU(0) = %d, want 1", got)
	}
}

func TestModeString(t *testing.T) {
	m, _ := ModeByRate(36)
	if got := m.String(); got != "(16QAM,3/4) 36 Mb/s" {
		t.Errorf("String = %q", got)
	}
}
