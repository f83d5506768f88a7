package wlan

import (
	"context"
	"testing"

	"cos"
)

func TestGrantBitsRoundTrip(t *testing.T) {
	for _, g := range []Grant{
		{Station: 1, Slots: 0, Seq: 0},
		{Station: 15, Slots: 255, Seq: 15},
		{Station: 7, Slots: 100, Seq: 9},
	} {
		bits, err := g.Bits()
		if err != nil {
			t.Fatalf("%+v: %v", g, err)
		}
		if len(bits) != GrantBits {
			t.Fatalf("grant encodes to %d bits", len(bits))
		}
		got, err := ParseGrant(bits)
		if err != nil {
			t.Fatal(err)
		}
		if got != g {
			t.Errorf("roundtrip %+v -> %+v", g, got)
		}
	}
}

func TestGrantValidation(t *testing.T) {
	bad := []Grant{
		{Station: 0, Slots: 1, Seq: 1},
		{Station: 16, Slots: 1, Seq: 1},
		{Station: 1, Slots: -1, Seq: 1},
		{Station: 1, Slots: 256, Seq: 1},
		{Station: 1, Slots: 1, Seq: 16},
	}
	for _, g := range bad {
		if _, err := g.Bits(); err == nil {
			t.Errorf("%+v should not encode", g)
		}
	}
	if _, err := ParseGrant(make([]byte, 8)); err == nil {
		t.Error("short grant should not parse")
	}
	// Station 0 in the bits is invalid.
	zero := make([]byte, GrantBits)
	if _, err := ParseGrant(zero); err == nil {
		t.Error("station-0 grant should not parse")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Stations: 16},
		{PayloadBytes: 4},
		{Coordination: Coordination(9)},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d should be rejected", i)
		}
	}
	if _, err := New(Config{}); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestCoordinationString(t *testing.T) {
	if CoordCoS.String() != "CoS" || CoordExplicit.String() != "explicit" {
		t.Error("coordination names wrong")
	}
	if Coordination(9).String() == "" {
		t.Error("unknown coordination should still print")
	}
}

func TestRunRejectsBadRounds(t *testing.T) {
	n, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.RunContext(context.Background(), 0); err == nil {
		t.Error("zero rounds should error")
	}
}

func TestCoSCoordinationSavesAirtime(t *testing.T) {
	const rounds = 40
	cosRep, expRep, err := Compare(context.Background(), Config{Stations: 3, SNRdB: 19, Seed: 5}, rounds)
	if err != nil {
		t.Fatal(err)
	}

	// The explicit design pays airtime for every grant; CoS pays only for
	// fallbacks and recoveries.
	if cosRep.ControlAirtime >= expRep.ControlAirtime {
		t.Errorf("CoS control airtime %.0fus should be below explicit %.0fus",
			cosRep.ControlAirtime*1e6, expRep.ControlAirtime*1e6)
	}
	if expRep.ControlOverhead() < 0.01 {
		t.Errorf("explicit overhead %.4f suspiciously small", expRep.ControlOverhead())
	}
	// Both schemes must actually coordinate at 19 dB.
	if cosRep.GrantDeliveryRate() < 0.85 {
		t.Errorf("CoS grant delivery %.3f too low", cosRep.GrantDeliveryRate())
	}
	if expRep.GrantDeliveryRate() < 0.95 {
		t.Errorf("explicit grant delivery %.3f too low", expRep.GrantDeliveryRate())
	}
	// Data keeps flowing under both.
	if cosRep.DataDelivered < rounds*7/10 || expRep.DataDelivered < rounds*7/10 {
		t.Errorf("data delivered CoS=%d explicit=%d of %d rounds",
			cosRep.DataDelivered, expRep.DataDelivered, rounds)
	}
}

func TestRoundRobinFairness(t *testing.T) {
	n, err := New(Config{Stations: 3, SNRdB: 22, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := n.RunContext(context.Background(), 45)
	if err != nil {
		t.Fatal(err)
	}
	for s, count := range rep.PerStation {
		if count < 8 {
			t.Errorf("station %d served only %d times in 45 rounds", s+1, count)
		}
	}
}

func TestReportAccounting(t *testing.T) {
	n, err := New(Config{Stations: 2, SNRdB: 20, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 20
	rep, err := n.RunContext(context.Background(), rounds)
	if err != nil {
		t.Fatal(err)
	}
	attempted := rep.DataDelivered + rep.DataLost
	if attempted > rounds {
		t.Errorf("data frames attempted %d > rounds %d", attempted, rounds)
	}
	grants := rep.GrantsDelivered + rep.GrantsLost
	if grants > rounds {
		t.Errorf("grants %d > rounds %d", grants, rounds)
	}
	if rep.DataAirtime <= 0 {
		t.Error("no data airtime recorded")
	}
	if rep.ControlOverhead() < 0 || rep.ControlOverhead() > 1 {
		t.Errorf("overhead %v out of range", rep.ControlOverhead())
	}
}

func TestExplicitNetworkDisablesCoS(t *testing.T) {
	n, err := New(Config{Coordination: CoordExplicit, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// The links were built WithoutCoS: MaxControlBits must be zero.
	for i, l := range n.links {
		bits, err := l.MaxControlBits(1024)
		if err != nil || bits != 0 {
			t.Errorf("station %d: MaxControlBits = %d, %v", i+1, bits, err)
		}
	}
	_ = cos.PositionB // keep the import honest if assertions change
}

func TestLowSNRDegradesGracefully(t *testing.T) {
	// At a hostile SNR the network keeps running: data losses and grant
	// losses rise but the scheduler never wedges.
	n, err := New(Config{Stations: 2, SNRdB: 9, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := n.RunContext(context.Background(), 30)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DataDelivered == 0 {
		t.Error("no data delivered at 9 dB; the base rates should still work")
	}
	if rep.DataAirtime <= 0 {
		t.Error("no airtime recorded")
	}
	// Every round is accounted: a data frame or an idle recovery.
	if rep.DataDelivered+rep.DataLost > rep.Rounds {
		t.Errorf("accounting overflow: %d+%d > %d", rep.DataDelivered, rep.DataLost, rep.Rounds)
	}
}
