package cos

import (
	"math"
	"testing"

	"cos/internal/phy"
)

func TestNewRateTableValidation(t *testing.T) {
	if _, err := NewRateTable(nil); err == nil {
		t.Error("empty table should error")
	}
	if _, err := NewRateTable([]RateEntry{{SNRdB: 5, SilencesPerPacket: -1}}); err == nil {
		t.Error("negative budget should error")
	}
	if _, err := NewRateTable([]RateEntry{{SNRdB: 5, SilencesPerPacket: 1}, {SNRdB: 5, SilencesPerPacket: 2}}); err == nil {
		t.Error("duplicate SNR should error")
	}
}

func TestRateTableLookup(t *testing.T) {
	tbl, err := NewRateTable([]RateEntry{
		{SNRdB: 15, SilencesPerPacket: 40},
		{SNRdB: 5, SilencesPerPacket: 10},
		{SNRdB: 10, SilencesPerPacket: 25},
	})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		snr  float64
		want int
	}{
		{3, 10},   // below all floors -> fallback (minimum budget)
		{5, 10},   // exact floor
		{9.9, 10}, // below next band
		{10, 25},
		{14.9, 25},
		{15, 40},
		{30, 40},
	}
	for _, c := range cases {
		if got := tbl.Lookup(c.snr); got != c.want {
			t.Errorf("Lookup(%v) = %d, want %d", c.snr, got, c.want)
		}
	}
	if got := tbl.Fallback(); got != 10 {
		t.Errorf("Fallback = %d, want 10", got)
	}
}

func TestRateTableEntriesSortedCopy(t *testing.T) {
	tbl, err := NewRateTable([]RateEntry{
		{SNRdB: 15, SilencesPerPacket: 40},
		{SNRdB: 5, SilencesPerPacket: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	if e := tbl.entries; e[0].SNRdB != 5 || e[1].SNRdB != 15 {
		t.Errorf("entries not sorted: %v", e)
	}
}

func TestDefaultRateTableSane(t *testing.T) {
	tbl := DefaultRateTable()
	if len(tbl.entries) < 5 {
		t.Error("default table suspiciously small")
	}
	if tbl.Fallback() <= 0 {
		t.Error("fallback budget should be positive")
	}
	for _, e := range tbl.entries {
		if e.SilencesPerPacket <= 0 {
			t.Errorf("entry %+v has non-positive budget", e)
		}
	}
}

func TestSilencesPerSecond(t *testing.T) {
	mode, err := phy.ModeByRate(24)
	if err != nil {
		t.Fatal(err)
	}
	// 1024-byte packet at 24 Mb/s: 86 symbols x 4us + 16us preamble = 360us.
	got := SilencesPerSecond(18, mode, 1024)
	want := 18.0 / 360e-6
	if math.Abs(got-want)/want > 1e-9 {
		t.Errorf("SilencesPerSecond = %v, want %v", got, want)
	}
}
