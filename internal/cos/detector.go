package cos

import (
	"fmt"
	"math"

	"cos/internal/dsp"
	"cos/internal/modulation"
	"cos/internal/obs"
	"cos/internal/ofdm"
	"cos/internal/phy"
)

// Detector metrics. Decision counts come from DetectMaskInto (every scanned
// position and every silence verdict); accuracy counts come from
// CompareMasks, which sees the transmitter's ground truth.
var (
	mDetectorScans = obs.Default().Counter("cos_detector_scans_total",
		"Symbol/subcarrier positions scanned by the energy detector.")
	mDetectorSilences = obs.Default().Counter("cos_detector_silences_detected_total",
		"Positions the energy detector declared silent.")
	mDetectorFP = obs.Default().Counter("cos_detector_false_positives_total",
		"Normal symbols detected as silent (vs. ground truth).")
	mDetectorFN = obs.Default().Counter("cos_detector_false_negatives_total",
		"Silence symbols the detector missed (vs. ground truth).")
	mDetectorTruthSilences = obs.Default().Counter("cos_detector_truth_silences_total",
		"Ground-truth silence positions compared.")
	mDetectorTruthNormals = obs.Default().Counter("cos_detector_truth_normals_total",
		"Ground-truth normal positions compared.")
)

// minThresholdFactor floors the adaptive threshold at this multiple of the
// noise floor. A noise-only bin has exponential energy with mean eta, so
// the false-negative probability is exp(-threshold/eta); a floor of 5
// bounds it near 0.7% even on deeply faded subcarriers, reproducing the
// paper's Fig. 10(c) behaviour (false negatives below 1% at every SNR,
// false positives paying the price at very low SNR).
const minThresholdFactor = 5.0

// Detector locates silence symbols by symbol-level energy detection on the
// raw (pre-equalization) FFT bins. The zero value uses the adaptive
// per-subcarrier threshold.
//
// The paper observes that "the dynamic adjustment of energy detection
// threshold is necessary to distinguish subcarrier with only noise from
// subcarrier with deep fading signal" (Sec. III-C). The adaptive threshold
// here implements that per subcarrier: a silent bin carries energy ~ eta
// (the pilot-aided noise-floor estimate of Eqs. (5)-(6)) while an active
// bin on subcarrier k carries ~ |H_k|^2*Es + eta, with H_k known from the
// long-training channel estimate. The threshold sits at the geometric mean
// of the two, floored at minThresholdFactor*eta.
type Detector struct {
	// Scheme is the packet's modulation: the detector must discriminate a
	// silent bin against the constellation's weakest point, whose energy is
	// Scheme.MinPointEnergy() times the subcarrier gain. Zero assumes unit
	// minimum energy (BPSK/QPSK-safe, optimistic for QAM).
	Scheme modulation.Scheme
	// FixedThreshold, when positive, bypasses adaptive estimation and uses
	// this absolute post-FFT energy threshold on every subcarrier instead
	// (the Fig. 10(b) threshold sweep and the fixed-threshold ablation).
	FixedThreshold float64
}

// Threshold returns the detection threshold (post-FFT energy) the detector
// uses for data subcarrier sc against the given front end.
func (d Detector) Threshold(fe *phy.FrontEnd, sc int) (float64, error) {
	if d.FixedThreshold > 0 {
		return d.FixedThreshold, nil
	}
	minE := 1.0
	if d.Scheme.Valid() {
		minE = d.Scheme.MinPointEnergy()
	}
	h, err := fe.ChannelAt(sc)
	if err != nil {
		return 0, err
	}
	eta := fe.NoiseVar
	if eta <= 0 {
		eta = 1e-12
	}
	active := minE*dsp.MagSq(h) + eta
	th := math.Sqrt(eta * active)
	if floor := minThresholdFactor * eta; th < floor {
		th = floor
	}
	return th, nil
}

// DetectSymbol scans all 48 data subcarriers of one payload symbol and
// returns which are silent; used to decode the subcarrier-selection
// feedback symbol.
func (d Detector) DetectSymbol(fe *phy.FrontEnd, sym int) ([]bool, error) {
	if sym < 0 || sym >= fe.NumSymbols() {
		return nil, fmt.Errorf("cos: symbol %d out of range [0,%d)", sym, fe.NumSymbols())
	}
	out := make([]bool, ofdm.NumData)
	for sc := 0; sc < ofdm.NumData; sc++ {
		th, err := d.Threshold(fe, sc)
		if err != nil {
			return nil, err
		}
		y, err := fe.Bins[sym].DataValue(sc)
		if err != nil {
			return nil, err
		}
		out[sc] = dsp.MagSq(y) < th
	}
	return out, nil
}

// DetectionStats quantifies detector accuracy against ground truth using
// the paper's two metrics (Sec. IV-C).
type DetectionStats struct {
	// FalsePositives counts normal symbols detected as silent.
	FalsePositives int
	// FalseNegatives counts silence symbols missed.
	FalseNegatives int
	// Silences is the number of true silence positions scanned.
	Silences int
	// Normals is the number of true normal positions scanned.
	Normals int
}

// FalsePositiveRate returns P(detected silent | actually normal).
func (s DetectionStats) FalsePositiveRate() float64 {
	if s.Normals == 0 {
		return 0
	}
	return float64(s.FalsePositives) / float64(s.Normals)
}

// FalseNegativeRate returns P(detected normal | actually silent).
func (s DetectionStats) FalseNegativeRate() float64 {
	if s.Silences == 0 {
		return 0
	}
	return float64(s.FalseNegatives) / float64(s.Silences)
}

// Add accumulates another measurement.
func (s *DetectionStats) Add(o DetectionStats) {
	s.FalsePositives += o.FalsePositives
	s.FalseNegatives += o.FalseNegatives
	s.Silences += o.Silences
	s.Normals += o.Normals
}

// CompareMasks evaluates a detected mask against the transmitter's ground
// truth over the control subcarriers.
func CompareMasks(truth, detected [][]bool, ctrlSCs []int) (DetectionStats, error) {
	var stats DetectionStats
	if len(truth) != len(detected) {
		return stats, fmt.Errorf("cos: mask sizes differ (%d vs %d)", len(truth), len(detected))
	}
	if err := validateCtrlSCs(ctrlSCs); err != nil {
		return stats, err
	}
	for s := range truth {
		for _, sc := range ctrlSCs {
			t, d := truth[s][sc], detected[s][sc]
			switch {
			case t && d:
				stats.Silences++
			case t && !d:
				stats.Silences++
				stats.FalseNegatives++
			case !t && d:
				stats.Normals++
				stats.FalsePositives++
			default:
				stats.Normals++
			}
		}
	}
	mDetectorFP.Add(uint64(stats.FalsePositives))
	mDetectorFN.Add(uint64(stats.FalseNegatives))
	mDetectorTruthSilences.Add(uint64(stats.Silences))
	mDetectorTruthNormals.Add(uint64(stats.Normals))
	return stats, nil
}
