package experiments

import (
	"math/rand"
	"testing"

	"cos/internal/channel"
	icos "cos/internal/cos"
	"cos/internal/phy"
)

// TestControlOnlyTrialMatchesFullTrial: a trial that stops after control
// extraction reports the same detection statistics and control outcome as
// the full trial from the same RNG state, and leaves the RNG where the
// full trial does, so the figures that skip the data decode see the same
// packets.
func TestControlOnlyTrialMatchesFullTrial(t *testing.T) {
	mode, err := phy.ModeByRate(12)
	if err != nil {
		t.Fatal(err)
	}
	snrs := []float64{3, 6, 9, 20} // control fails at the low end
	run := func(controlOnly bool) ([]cosTrialResult, int64) {
		ch, err := trialChannel("", channel.PositionB, false, 4)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(5))
		scr := &trialScratch{}
		trial := cosTrialConfig{
			mode:        mode,
			psduLen:     1024,
			silences:    12,
			ctrlSCs:     fig10CtrlSCs,
			detector:    icos.Detector{Scheme: mode.Modulation},
			controlOnly: controlOnly,
		}
		var out []cosTrialResult
		for p := 0; p < 4*len(snrs); p++ {
			r, err := runCoSTrial(scr, ch, 0, snrs[p%len(snrs)], trial, rng)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, *r)
		}
		return out, rng.Int63()
	}
	full, fullNext := run(false)
	only, onlyNext := run(true)
	if fullNext != onlyNext {
		t.Errorf("RNG diverged: next draw %d after full trials, %d after control-only ones", fullNext, onlyNext)
	}
	ctrlOK, dataOK := 0, 0
	for i := range full {
		if only[i].detection != full[i].detection || only[i].ctrlOK != full[i].ctrlOK {
			t.Errorf("packet %d: control-only %+v, full %+v", i, only[i], full[i])
		}
		if only[i].dataOK {
			t.Errorf("packet %d: control-only trial reports dataOK, but it decoded no data", i)
		}
		if full[i].ctrlOK {
			ctrlOK++
		}
		if full[i].dataOK {
			dataOK++
		}
	}
	// The comparison means something only if both control outcomes occur
	// and the full trials did decode data.
	if ctrlOK == 0 || ctrlOK == len(full) || dataOK == 0 {
		t.Errorf("%d of %d trials delivered control and %d data; want a mix of control outcomes and some data", ctrlOK, len(full), dataOK)
	}
}
