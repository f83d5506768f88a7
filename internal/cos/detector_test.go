package cos

import (
	"bytes"
	"math/rand"
	"testing"

	"cos/internal/bits"
	"cos/internal/channel"
	"cos/internal/phy"
)

// buildCoSPacket creates a data packet with an embedded control message and
// runs it through ch at the given SNR; returns everything a test needs.
type cosRun struct {
	tx        *phy.TxPacket
	truthMask [][]bool
	fe        *phy.FrontEnd
	psdu      []byte
	ctrl      []byte
	ctrlSCs   []int
}

func runCoS(t *testing.T, rateMbps int, snrDB float64, ctrlSCs []int, nCtrlBits int, seed int64, pos channel.Position) *cosRun {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	mode, err := phy.ModeByRate(rateMbps)
	if err != nil {
		t.Fatal(err)
	}
	psdu := make([]byte, 1024)
	rng.Read(psdu)
	ctrl := make([]byte, nCtrlBits)
	for i := range ctrl {
		ctrl[i] = byte(rng.Intn(2))
	}
	pkt, err := phy.BuildPacket(phy.TxConfig{Mode: mode}, psdu)
	if err != nil {
		t.Fatal(err)
	}
	mask := embed(t, pkt, ctrlSCs, ctrl, DefaultBitsPerInterval)
	samples, err := pkt.Samples()
	if err != nil {
		t.Fatal(err)
	}
	ch, err := pos.New(false)
	if err != nil {
		t.Fatal(err)
	}
	h := ch.FrequencyResponse(0)
	nv, err := phy.NoiseVarForActualSNR(h, snrDB)
	if err != nil {
		t.Fatal(err)
	}
	rx := ch.Apply(samples, 0, nv, rng)
	fe, err := phy.RunFrontEnd(rx)
	if err != nil {
		t.Fatal(err)
	}
	return &cosRun{tx: pkt, truthMask: mask, fe: fe, psdu: psdu, ctrl: ctrl, ctrlSCs: ctrlSCs}
}

// embed silences controlBits on the packet's control subcarriers (interval
// encoding, layout, and grid erasure) and returns the ground-truth erasure
// mask.
func embed(t *testing.T, pkt *phy.TxPacket, ctrlSCs []int, controlBits []byte, k int) [][]bool {
	t.Helper()
	intervals, err := EncodeIntervalsInto(nil, controlBits, k)
	if err != nil {
		t.Fatal(err)
	}
	positions, err := LayoutInto(nil, intervals, pkt.NumSymbols(), ctrlSCs)
	if err != nil {
		t.Fatal(err)
	}
	mask, err := InsertSilencesInto(nil, pkt.Grid, positions)
	if err != nil {
		t.Fatal(err)
	}
	return mask
}

func TestDetectorFindsAllSilencesAtGoodSNR(t *testing.T) {
	r := runCoS(t, 24, 22, []int{9, 10, 11, 12, 13, 14, 15, 16}, 40, 201, channel.PositionB)
	det := Detector{Scheme: r.tx.Config.Mode.Modulation}
	mask, err := det.DetectMaskInto(nil, r.fe, r.ctrlSCs)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := CompareMasks(r.truthMask, mask, r.ctrlSCs)
	if err != nil {
		t.Fatal(err)
	}
	if stats.FalseNegatives != 0 {
		t.Errorf("missed %d of %d silences at 20 dB", stats.FalseNegatives, stats.Silences)
	}
	if stats.FalsePositiveRate() > 0.02 {
		t.Errorf("false positive rate %v too high at 20 dB", stats.FalsePositiveRate())
	}
	if stats.Silences != 11 { // 40 bits / 4 per interval + start marker
		t.Errorf("scanned %d true silences, want 11", stats.Silences)
	}
}

func TestExtractControlRoundTrip(t *testing.T) {
	r := runCoS(t, 12, 18, []int{4, 12, 20, 28, 40, 44}, 48, 202, channel.PositionC)
	mask, err := (Detector{Scheme: r.tx.Config.Mode.Modulation}).DetectMaskInto(nil, r.fe, r.ctrlSCs)
	if err != nil {
		t.Fatal(err)
	}
	intervals, err := ExtractIntervalsInto(nil, mask, r.ctrlSCs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeIntervalsInto(nil, intervals, DefaultBitsPerInterval)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) < len(r.ctrl) || !bits.Equal(got[:len(r.ctrl)], r.ctrl) {
		t.Fatalf("control message corrupted: got %v, want %v", got, r.ctrl)
	}
	// The detected mask must let the data decode too.
	dec, err := r.fe.Decode(phy.DecodeConfig{Mode: r.tx.Config.Mode, PSDULen: len(r.psdu), Erased: mask})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec.PSDU, r.psdu) {
		t.Error("data packet corrupted by CoS at 18 dB")
	}
}

func TestThresholdTradeoff(t *testing.T) {
	// Very low fixed threshold -> false negatives; very high -> false
	// positives (Fig. 10(b) shape).
	r := runCoS(t, 12, 9, []int{9, 10, 11, 12, 13, 14, 15, 16}, 40, 203, channel.PositionA)
	lowDet := Detector{FixedThreshold: r.fe.NoiseVar * 0.005}
	highDet := Detector{FixedThreshold: r.fe.NoiseVar * 4000}

	lowMask, err := lowDet.DetectMaskInto(nil, r.fe, r.ctrlSCs)
	if err != nil {
		t.Fatal(err)
	}
	highMask, err := highDet.DetectMaskInto(nil, r.fe, r.ctrlSCs)
	if err != nil {
		t.Fatal(err)
	}
	lowStats, _ := CompareMasks(r.truthMask, lowMask, r.ctrlSCs)
	highStats, _ := CompareMasks(r.truthMask, highMask, r.ctrlSCs)
	if lowStats.FalseNegativeRate() <= highStats.FalseNegativeRate() {
		t.Errorf("low threshold FN %v should exceed high threshold FN %v",
			lowStats.FalseNegativeRate(), highStats.FalseNegativeRate())
	}
	if highStats.FalsePositiveRate() <= lowStats.FalsePositiveRate() {
		t.Errorf("high threshold FP %v should exceed low threshold FP %v",
			highStats.FalsePositiveRate(), lowStats.FalsePositiveRate())
	}
}

func TestDetectorThresholdSelection(t *testing.T) {
	r := runCoS(t, 12, 15, []int{5}, 4, 204, channel.PositionB)
	// Fixed threshold wins regardless of subcarrier.
	if th, err := (Detector{FixedThreshold: 0.5}).Threshold(r.fe, 0); err != nil || th != 0.5 {
		t.Errorf("fixed threshold = %v, %v", th, err)
	}
	one, err := (Detector{}).Threshold(r.fe, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Adaptive threshold is at least the noise-floor floor.
	if one < 2*r.fe.NoiseVar*0.99 {
		t.Errorf("threshold %v below the noise floor floor %v", one, 2*r.fe.NoiseVar)
	}
	// Stronger subcarriers get higher thresholds.
	var strongest, weakest int
	var hi, lo float64 = -1, 1e18
	for sc := 0; sc < 48; sc++ {
		h, err := r.fe.ChannelAt(sc)
		if err != nil {
			t.Fatal(err)
		}
		m := real(h)*real(h) + imag(h)*imag(h)
		if m > hi {
			hi, strongest = m, sc
		}
		if m < lo {
			lo, weakest = m, sc
		}
	}
	thStrong, _ := (Detector{}).Threshold(r.fe, strongest)
	thWeak, _ := (Detector{}).Threshold(r.fe, weakest)
	if thStrong <= thWeak {
		t.Errorf("threshold on strongest subcarrier (%v) should exceed weakest (%v)", thStrong, thWeak)
	}
	if _, err := (Detector{}).Threshold(r.fe, 99); err == nil {
		t.Error("out-of-range subcarrier should error")
	}
}

func TestDetectMaskValidation(t *testing.T) {
	r := runCoS(t, 12, 15, []int{5}, 4, 205, channel.PositionB)
	if _, err := (Detector{}).DetectMaskInto(nil, r.fe, nil); err == nil {
		t.Error("empty ctrl set should error")
	}
	if _, err := (Detector{}).DetectSymbol(r.fe, -1); err == nil {
		t.Error("negative symbol should error")
	}
	if _, err := (Detector{}).DetectSymbol(r.fe, r.fe.NumSymbols()); err == nil {
		t.Error("out-of-range symbol should error")
	}
}

func TestCompareMasksValidation(t *testing.T) {
	if _, err := CompareMasks(GrowMask(nil, 2), GrowMask(nil, 3), []int{1}); err == nil {
		t.Error("size mismatch should error")
	}
	if _, err := CompareMasks(GrowMask(nil, 2), GrowMask(nil, 2), []int{99}); err == nil {
		t.Error("bad ctrl set should error")
	}
}

func TestDetectionStatsAccumulate(t *testing.T) {
	a := DetectionStats{FalsePositives: 1, FalseNegatives: 2, Silences: 10, Normals: 100}
	b := DetectionStats{FalsePositives: 3, FalseNegatives: 0, Silences: 5, Normals: 50}
	a.Add(b)
	if a.FalsePositives != 4 || a.FalseNegatives != 2 || a.Silences != 15 || a.Normals != 150 {
		t.Errorf("Add result %+v", a)
	}
	if a.FalsePositiveRate() != 4.0/150 {
		t.Errorf("FP rate %v", a.FalsePositiveRate())
	}
	if a.FalseNegativeRate() != 2.0/15 {
		t.Errorf("FN rate %v", a.FalseNegativeRate())
	}
	var zero DetectionStats
	if zero.FalsePositiveRate() != 0 || zero.FalseNegativeRate() != 0 {
		t.Error("zero stats should report zero rates")
	}
}

func TestInterferenceCausesFalseNegatives(t *testing.T) {
	// Fig. 10(d): strong pulse interference on a silent bin raises its
	// energy above threshold and the silence is missed.
	rng := rand.New(rand.NewSource(206))
	mode, _ := phy.ModeByRate(12)
	psdu := make([]byte, 1024)
	rng.Read(psdu)
	ctrl := make([]byte, 40)
	for i := range ctrl {
		ctrl[i] = byte(rng.Intn(2))
	}
	ctrlSCs := []int{9, 10, 11, 12, 13, 14, 15, 16}
	ch, _ := channel.PositionB.New(false)
	h := ch.FrequencyResponse(0)
	nv, _ := phy.NoiseVarForActualSNR(h, 15)

	run := func(interfere bool) DetectionStats {
		pkt, err := phy.BuildPacket(phy.TxConfig{Mode: mode}, psdu)
		if err != nil {
			t.Fatal(err)
		}
		truth := embed(t, pkt, ctrlSCs, ctrl, DefaultBitsPerInterval)
		samples, _ := pkt.Samples()
		rx := ch.Apply(samples, 0, nv, rng)
		if interfere {
			intf := channel.PulseInterferer{Power: 30, BurstLen: 160, StartProb: 0.01}
			if _, err := intf.Apply(rx, rng); err != nil {
				t.Fatal(err)
			}
		}
		fe, err := phy.RunFrontEnd(rx)
		if err != nil {
			t.Fatal(err)
		}
		mask, err := (Detector{Scheme: mode.Modulation}).DetectMaskInto(nil, fe, ctrlSCs)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := CompareMasks(truth, mask, ctrlSCs)
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}

	var clean, dirty DetectionStats
	for trial := 0; trial < 10; trial++ {
		clean.Add(run(false))
		dirty.Add(run(true))
	}
	if dirty.FalseNegativeRate() <= clean.FalseNegativeRate() {
		t.Errorf("interference FN rate %v should exceed clean %v",
			dirty.FalseNegativeRate(), clean.FalseNegativeRate())
	}
}
