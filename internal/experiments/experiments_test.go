package experiments

import (
	"context"
	"testing"
)

// tinyScale keeps regression runs fast; shapes must still hold.
const tinyScale = 0.08

func seriesByName(t *testing.T, r *Result, name string) Series {
	t.Helper()
	for _, s := range r.Series {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("%s: no series %q (have %v)", r.ID, name, seriesNames(r))
	return Series{}
}

func seriesNames(r *Result) []string {
	out := make([]string, 0, len(r.Series))
	for _, s := range r.Series {
		out = append(out, s.Name)
	}
	return out
}

// runFigure runs figure id exactly as `cos-figures -fig id -scale scale
// -seed 1` does, so a shape test checks the figure users see.
func runFigure(t *testing.T, id string, scale float64) *Result {
	t.Helper()
	res, err := Run(context.Background(), id, RunOptions{Scale: scale, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestFig2ShapeActualAboveMinRequired(t *testing.T) {
	res := runFigure(t, "fig2", 0.1)
	minReq := seriesByName(t, res, "MinRequiredSNR")
	actual := seriesByName(t, res, "ActualSNR")
	if len(minReq.X) < 5 {
		t.Fatalf("only %d points", len(minReq.X))
	}
	above := 0
	for i := range minReq.X {
		if actual.Y[i] > minReq.Y[i] {
			above++
		}
	}
	// The defining property of the SNR gap: actual SNR sits above the
	// stair-case minimum (essentially always).
	if above < len(minReq.X)*95/100 {
		t.Errorf("actual SNR above minimum required on only %d/%d points", above, len(minReq.X))
	}
	// Actual SNR should also sit above measured SNR on selective channels.
	aboveMeasured := 0
	for i := range actual.X {
		if actual.Y[i] >= actual.X[i]-0.3 {
			aboveMeasured++
		}
	}
	if aboveMeasured < len(actual.X)*9/10 {
		t.Errorf("actual above measured on only %d/%d points", aboveMeasured, len(actual.X))
	}
}

func TestFig3ShapeBERDecreasesWithSNR(t *testing.T) {
	res := runFigure(t, "fig3", 0.15)
	actual := seriesByName(t, res, "ActualBER")
	redundant := seriesByName(t, res, "RedundantBER")
	if actual.Y[0] <= actual.Y[len(actual.Y)-1] {
		t.Errorf("decoder-input BER should fall with SNR: %v", actual.Y)
	}
	if redundant.Y[len(redundant.Y)-1] <= redundant.Y[0] {
		t.Errorf("redundant BER should grow with SNR: %v", redundant.Y)
	}
	for i := range actual.Y {
		if actual.Y[i] < 0 || actual.Y[i] > 0.2 {
			t.Errorf("implausible decoder-input BER %v at %v dB", actual.Y[i], actual.X[i])
		}
	}
}

func TestFig5ShapeFrequencyDiversity(t *testing.T) {
	res := runFigure(t, "fig5", 0.3)
	if len(res.Series) != 3 {
		t.Fatalf("want 3 position series, got %v", seriesNames(res))
	}
	for _, s := range res.Series {
		if len(s.Y) != 48 {
			t.Fatalf("%s: %d subcarriers", s.Name, len(s.Y))
		}
		min, max := s.Y[0], s.Y[0]
		for _, v := range s.Y {
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		// Frequency selectivity: EVM spread across subcarriers is large
		// (the paper reports differences up to 13 percentage points).
		if max-min < 2 {
			t.Errorf("%s: EVM spread %.2f%% too flat for a selective channel", s.Name, max-min)
		}
		// Deep notches can push post-equalization EVM past 100% (the error
		// vector exceeds the signal on a near-dead subcarrier); anything
		// beyond a few hundred percent would indicate a pipeline bug.
		if max > 500 {
			t.Errorf("%s: implausible EVM %v%%", s.Name, max)
		}
	}
}

func TestFig6ShapePeriodicErrors(t *testing.T) {
	res := runFigure(t, "fig6", 0.15)
	ser := seriesByName(t, res, "SERBySubcarrier")
	freq := seriesByName(t, res, "ErrorFreqByPosition")
	if len(freq.Y) != 1000 {
		t.Fatalf("positions = %d", len(freq.Y))
	}
	// Errors concentrate: the max-SER subcarrier should dominate the mean.
	var sum, max float64
	for _, v := range ser.Y {
		sum += v
		if v > max {
			max = v
		}
	}
	mean := sum / float64(len(ser.Y))
	if max < 3*mean {
		t.Errorf("symbol errors not concentrated: max SER %v vs mean %v", max, mean)
	}
	// The positional error frequency must correlate with the subcarrier
	// SER at period 48: position p falls on subcarrier p%%48.
	var corrNum float64
	for p, v := range freq.Y {
		corrNum += v * ser.Y[p%48]
	}
	var shuffled float64
	for p, v := range freq.Y {
		shuffled += v * ser.Y[(p+17)%48]
	}
	if corrNum <= shuffled {
		t.Errorf("no 48-periodicity: aligned weight %v <= misaligned %v", corrNum, shuffled)
	}
}

func TestFig7ShapeTemporalStability(t *testing.T) {
	res := runFigure(t, "fig7", 0.05)
	// CDF medians should be small (stable channel) and grow with tau.
	med := func(s Series) float64 {
		for i, p := range s.Y {
			if p >= 0.5 {
				return s.X[i]
			}
		}
		return s.X[len(s.X)-1]
	}
	m10 := med(seriesByName(t, res, "CDF tau=10ms"))
	m40 := med(seriesByName(t, res, "CDF tau=40ms"))
	if m10 > 1.0 {
		t.Errorf("median nabla-EVM at 10ms = %v; channel should be stable", m10)
	}
	if m40 < m10 {
		t.Errorf("nabla-EVM should not shrink with tau: 10ms=%v 40ms=%v", m10, m40)
	}
}

func TestFig10aShapeSilencesDiscernible(t *testing.T) {
	res := runFigure(t, "fig10a", 0.01)
	s := seriesByName(t, res, "RelativeMagnitude")
	if len(s.Y) != 52 {
		t.Fatalf("%d subcarriers", len(s.Y))
	}
	// Data subcarriers 9,10,16 are logical data indices; map them into the
	// 52-subcarrier ascending ordering: occupied index = data index shifted
	// by pilots below it. Data SC 9 is logical -15 -> occupied position 11
	// (0-based) among -26..-1,1..26 with pilots included.
	// Simply assert: the three smallest magnitudes are well below median.
	sorted := append([]float64(nil), s.Y...)
	for i := range sorted {
		for j := i + 1; j < len(sorted); j++ {
			if sorted[j] < sorted[i] {
				sorted[i], sorted[j] = sorted[j], sorted[i]
			}
		}
	}
	median := sorted[26]
	if sorted[2] > median/3 {
		t.Errorf("silent bins not discernible: third-smallest %v vs median %v", sorted[2], median)
	}
}

func TestFig10bShapeThresholdTradeoff(t *testing.T) {
	res := runFigure(t, "fig10b", tinyScale)
	fp := seriesByName(t, res, "FalsePositive")
	fn := seriesByName(t, res, "FalseNegative")
	// FN falls with threshold; FP rises.
	if fn.Y[0] <= fn.Y[len(fn.Y)-1] {
		t.Errorf("FN should fall as threshold rises: %v", fn.Y)
	}
	if fp.Y[len(fp.Y)-1] <= fp.Y[0] {
		t.Errorf("FP should rise with threshold: %v", fp.Y)
	}
}

func TestFig10cShapeAccuracy(t *testing.T) {
	res := runFigure(t, "fig10c", 0.03)
	fp := seriesByName(t, res, "FalsePositive")
	fn := seriesByName(t, res, "FalseNegative")
	// FN stays low everywhere; FP at high SNR is near zero and no larger
	// than at low SNR.
	for i := range fn.Y {
		if fn.Y[i] > 0.08 {
			t.Errorf("FN %v at %v dB too high", fn.Y[i], fn.X[i])
		}
	}
	last := len(fp.Y) - 1
	if fp.Y[last] > 0.02 {
		t.Errorf("FP %v at high SNR should be near zero", fp.Y[last])
	}
	if fp.Y[0] < fp.Y[last]-1e-9 {
		t.Errorf("FP should not grow with SNR: %v", fp.Y)
	}
}

func TestFig10dShapeInterference(t *testing.T) {
	res := runFigure(t, "fig10d", 0.05)
	dirty := seriesByName(t, res, "CoS with strong interference")
	clean := seriesByName(t, res, "CoS")
	var dirtySum, cleanSum float64
	for i := range dirty.Y {
		dirtySum += dirty.Y[i]
		cleanSum += clean.Y[i]
	}
	if dirtySum <= cleanSum {
		t.Errorf("interference should raise FN: dirty %v clean %v", dirty.Y, clean.Y)
	}
}

func TestAblationEVDShape(t *testing.T) {
	res := runFigure(t, "ablation-evd", 0.2)
	evd := seriesByName(t, res, "ErasureViterbi")
	ign := seriesByName(t, res, "ErasureIgnorant")
	// Silences are free under EVD (Sec. III-E): at every budget it keeps
	// PRR near 1 and never loses to decoding the silences as data, and
	// somewhere it wins outright.
	wins := false
	for i, x := range evd.X {
		if evd.Y[i] < 0.95 {
			t.Errorf("%v silences: EVD PRR %v, want >= 0.95", x, evd.Y[i])
		}
		if evd.Y[i] < ign.Y[i] {
			t.Errorf("%v silences: EVD PRR %v below erasure-ignorant %v", x, evd.Y[i], ign.Y[i])
		}
		wins = wins || evd.Y[i] > ign.Y[i]
	}
	if !wins {
		t.Errorf("EVD should beat erasure-ignorant decoding at some budget: %v vs %v", evd.Y, ign.Y)
	}
	// At zero silences both decode everything.
	if ign.Y[0] < 0.95 {
		t.Errorf("baseline PRR without silences should be ~1: %v / %v", evd.Y[0], ign.Y[0])
	}
}

func TestAblationPlacementShape(t *testing.T) {
	res := runFigure(t, "ablation-placement", 0.2)
	weak := seriesByName(t, res, "WeakSubcarriers")
	strong := seriesByName(t, res, "StrongSubcarriers")
	var weakSum, strongSum float64
	for i := range weak.Y {
		weakSum += weak.Y[i]
		strongSum += strong.Y[i]
	}
	if weakSum < strongSum {
		t.Errorf("weak-subcarrier placement should not lose to strong: weak %v strong %v", weak.Y, strong.Y)
	}
}

func TestControlAccuracyShape(t *testing.T) {
	res := runFigure(t, "accuracy", 0.15)
	s := seriesByName(t, res, "ControlDelivery")
	last := len(s.Y) - 1
	if s.Y[last] < 0.9 {
		t.Errorf("control delivery %v at %v dB; paper reports close to 100%%", s.Y[last], s.X[last])
	}
}

// TestZeroOptionsSelectScaleAndSeedOne: the zero RunOptions decomposes
// every figure exactly as Scale 1, Seed 1 does, as RunOptions documents.
func TestZeroOptionsSelectScaleAndSeedOne(t *testing.T) {
	for _, id := range IDs() {
		want, _ := Tasks(id, RunOptions{Scale: 1, Seed: 1})
		for _, o := range []RunOptions{{}, {Scale: -1}} {
			if got, _ := Tasks(id, o); got.NumTasks() != want.NumTasks() {
				t.Errorf("%s: %+v decomposes into %d tasks, Scale 1 into %d", id, o, got.NumTasks(), want.NumTasks())
			}
		}
	}
}

func TestRunUnknownID(t *testing.T) {
	if _, err := Run(context.Background(), "nope", RunOptions{}); err == nil {
		t.Error("unknown experiment should error")
	}
}

func TestFig9TinyShape(t *testing.T) {
	res := runFigure(t, "fig9", 0.05)
	if len(res.Series) != 6 {
		t.Fatalf("want 6 mode series, got %v", seriesNames(res))
	}
	// Key qualitative claims, at the figure's own PRR target: every mode
	// sustains a nonzero budget, and within a mode Rm does not fall from
	// the band's low edge to its high edge.
	for _, s := range res.Series {
		if len(s.Y) != 2 {
			t.Fatalf("%s: %d points", s.Name, len(s.Y))
		}
		if s.Y[0] <= 0 && s.Y[1] <= 0 {
			t.Errorf("%s: no capacity anywhere in its band", s.Name)
		}
		if s.Y[1] < s.Y[0]*0.5 {
			t.Errorf("%s: Rm fell sharply within the band: %v", s.Name, s.Y)
		}
	}
}

func TestAblationQuantizationShape(t *testing.T) {
	res := runFigure(t, "ablation-quantization", 0.15)
	float := seriesByName(t, res, "float")
	q4 := seriesByName(t, res, "4-bit")
	q3 := seriesByName(t, res, "3-bit")
	var fSum, q4Sum, q3Sum float64
	for i := range float.Y {
		fSum += float.Y[i]
		q4Sum += q4.Y[i]
		q3Sum += q3.Y[i]
	}
	if q4Sum < fSum-0.5 {
		t.Errorf("4-bit LLRs should track float: %v vs %v", q4.Y, float.Y)
	}
	if q3Sum >= q4Sum {
		t.Errorf("3-bit LLRs should degrade below 4-bit: %v vs %v", q3.Y, q4.Y)
	}
}

func TestAblationThresholdShape(t *testing.T) {
	res := runFigure(t, "ablation-threshold", 0.15)
	adaptive := seriesByName(t, res, "AdaptivePerSubcarrier")
	fixed := seriesByName(t, res, "FixedGlobal")
	// The fixed threshold only works near its 12 dB calibration point; the
	// adaptive detector must dominate at the high-SNR end.
	last := len(adaptive.Y) - 1
	if adaptive.Y[last] <= fixed.Y[last] {
		t.Errorf("adaptive (%v) should beat fixed (%v) at %v dB",
			adaptive.Y[last], fixed.Y[last], adaptive.X[last])
	}
	var aSum, fSum float64
	for i := range adaptive.Y {
		aSum += adaptive.Y[i]
		fSum += fixed.Y[i]
	}
	if aSum <= fSum {
		t.Errorf("adaptive should dominate overall: %v vs %v", adaptive.Y, fixed.Y)
	}
}
