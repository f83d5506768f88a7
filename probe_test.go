package cos_test

import (
	"errors"
	"sync"
	"testing"

	"cos"
)

func sendN(t *testing.T, link *cos.Link, n int) []*cos.Exchange {
	t.Helper()
	data := make([]byte, 1024)
	out := make([]*cos.Exchange, 0, n)
	for i := 0; i < n; i++ {
		ctrl := []byte{1, 0, 1, 0}
		if maxBits, err := link.MaxControlBits(len(data)); err != nil || maxBits < len(ctrl) {
			ctrl = nil // budget follows feedback; probe behaviour must not care
		}
		ex, err := link.Send(data, ctrl)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, ex)
	}
	return out
}

func TestNoProbeWithoutOption(t *testing.T) {
	// The zero-overhead guarantee: without WithProbe no probe is ever
	// built, while the span layer still times every stage.
	reg := cos.NewMetricsRegistry()
	link, err := cos.NewLink(cos.WithSNR(18), cos.WithSeed(31), cos.WithSilenceBudget(16), cos.WithMetricsRegistry(reg))
	if err != nil {
		t.Fatal(err)
	}
	for i, ex := range sendN(t, link, 6) {
		if ex.Probe != nil {
			t.Errorf("exchange %d grew a probe without WithProbe", i)
		}
		var stages int64
		for _, ns := range ex.StageNS {
			stages += ns
		}
		if stages <= 0 {
			t.Errorf("exchange %d has no stage latencies: %v", i, ex.StageNS)
		}
	}
	if n := reg.Snapshot()["cos_link_probes_total"]; n != 0 {
		t.Errorf("cos_link_probes_total = %v on an unprobed link", n)
	}
}

func TestProbeSamplesEveryNth(t *testing.T) {
	reg := cos.NewMetricsRegistry()
	var fired []int
	link, err := cos.NewLink(cos.WithSNR(18), cos.WithSeed(32), cos.WithSilenceBudget(16),
		cos.WithMetricsRegistry(reg),
		cos.WithProbe(3),
		cos.WithObserver(func(ex *cos.Exchange) {
			if ex.Probe != nil {
				fired = append(fired, ex.Probe.Seq)
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	exchanges := sendN(t, link, 7)
	for i, ex := range exchanges {
		want := i%3 == 0
		if got := ex.Probe != nil; got != want {
			t.Errorf("exchange %d: probe attached = %v, want %v", i, got, want)
		}
		if ex.Probe != nil && ex.Probe.Seq != i {
			t.Errorf("exchange %d: probe.Seq = %d", i, ex.Probe.Seq)
		}
	}
	if len(fired) != 3 || fired[0] != 0 || fired[1] != 3 || fired[2] != 6 {
		t.Errorf("observer saw probes on %v, want [0 3 6]", fired)
	}
	if n := reg.Snapshot()["cos_link_probes_total"]; n != 3 {
		t.Errorf("cos_link_probes_total = %v, want 3", n)
	}
}

func TestProbeContents(t *testing.T) {
	link, err := cos.NewLink(cos.WithSNR(14), cos.WithSeed(33), cos.WithProbe(1))
	if err != nil {
		t.Fatal(err)
	}
	ex := sendN(t, link, 1)[0]
	p := ex.Probe
	if p == nil {
		t.Fatal("no probe on a WithProbe(1) link")
	}
	if len(p.EVM) != 48 {
		t.Errorf("EVM has %d subcarriers, want 48", len(p.EVM))
	}
	for sc, v := range p.EVM {
		if v < 0 {
			t.Errorf("EVM[%d] = %v negative", sc, v)
		}
	}
	if p.NumSymbols <= 0 || p.DecoderInputBits <= 0 {
		t.Errorf("empty demod stats: symbols=%d bits=%d", p.NumSymbols, p.DecoderInputBits)
	}
	if p.NoiseVar <= 0 {
		t.Errorf("NoiseVar = %v", p.NoiseVar)
	}
	if len(p.ControlSubcarriers) == 0 {
		t.Fatal("no control subcarriers recorded")
	}
	if len(p.DetectorThresholds) != len(p.ControlSubcarriers) ||
		len(p.DetectorEnergyRatios) != len(p.ControlSubcarriers) {
		t.Errorf("detector stats misaligned: %d thresholds, %d ratios, %d control SCs",
			len(p.DetectorThresholds), len(p.DetectorEnergyRatios), len(p.ControlSubcarriers))
	}
	for i, th := range p.DetectorThresholds {
		if th <= 0 {
			t.Errorf("DetectorThresholds[%d] = %v", i, th)
		}
	}
	for _, pos := range p.ErasurePositions {
		if pos < 0 || pos >= p.NumSymbols*48 {
			t.Errorf("erasure position %d out of grid [0,%d)", pos, p.NumSymbols*48)
		}
	}
}

func TestProbeRejectsBadInterval(t *testing.T) {
	_, err := cos.NewLink(cos.WithProbe(0))
	var ce *cos.ConfigError
	if !errors.As(err, &ce) {
		t.Fatalf("WithProbe(0) error = %v, want ConfigError", err)
	}
}

func TestProbedLinksConcurrent(t *testing.T) {
	// Probed links sharing the default registry must be race-clean: span
	// histograms are shared across links, probe state is per-link.
	var wg sync.WaitGroup
	for l := 0; l < 4; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			link, err := cos.NewLink(cos.WithSNR(18), cos.WithSeed(int64(40+l)), cos.WithSilenceBudget(16),
				cos.WithProbe(2))
			if err != nil {
				t.Error(err)
				return
			}
			data := make([]byte, 1024)
			for i := 0; i < 6; i++ {
				ctrl := []byte{1, 0, 1, 0}
				if maxBits, err := link.MaxControlBits(len(data)); err != nil || maxBits < len(ctrl) {
					ctrl = nil // budget follows the rate; probes must not care
				}
				ex, err := link.Send(data, ctrl)
				if err != nil {
					t.Error(err)
					return
				}
				if (i%2 == 0) != (ex.Probe != nil) {
					t.Errorf("link %d exchange %d: unexpected probe state", l, i)
				}
			}
		}(l)
	}
	wg.Wait()
}
