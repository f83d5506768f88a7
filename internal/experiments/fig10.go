package experiments

import (
	"context"
	"math"
	"math/rand"
	"sync"

	"cos/internal/channel"
	icos "cos/internal/cos"
	"cos/internal/dsp"
	"cos/internal/ofdm"
	"cos/internal/phy"
	"cos/internal/pool"
	"cos/internal/scenario"
)

// fig10CtrlSCs is the contiguous control set of the paper's Fig. 10(a)
// (data subcarriers 10..17 in its 1-based numbering).
var fig10CtrlSCs = []int{9, 10, 11, 12, 13, 14, 15, 16}

// fig10aSNR is the true channel SNR in dB of the Fig. 10(a) snapshot.
const fig10aSNR = 15

// fig10aTasks reproduces Fig. 10(a): the relative FFT magnitudes of the
// 52 occupied subcarriers of one received OFDM symbol in which control
// subcarriers 10, 11 and 17 (1-based; 9, 10 and 16 here) carry silence
// symbols. The silent bins are clearly discernible. It is a single packet,
// so a one-task set whose record is the normalized magnitude curve.
func fig10aTasks(o RunOptions) TaskSet {
	return tasks[[]float64]{
		n: 1,
		run: func(context.Context, int, *rand.Rand) ([]float64, error) {
			return fig10aMagnitudes(o)
		},
		assemble: func(recs [][]float64) (*Result, error) {
			res := &Result{
				ID:     "fig10a",
				Title:  "Relative FFT magnitudes of 52 subcarriers with silences on control subcarriers",
				XLabel: "subcarrier index (1-52)",
				YLabel: "relative FFT magnitude",
			}
			s := Series{Name: "RelativeMagnitude"}
			for i, m := range recs[0] {
				s.X = append(s.X, float64(i+1))
				s.Y = append(s.Y, m)
			}
			res.Add(s)
			res.Note("silences inserted on data subcarriers 10, 11, 17 (1-based) of the plotted symbol")
			return res, nil
		},
	}
}

// fig10aMagnitudes measures the 52 occupied subcarriers' FFT magnitudes,
// normalized to the maximum, drawing from its own rand.NewSource(o.Seed).
func fig10aMagnitudes(o RunOptions) ([]float64, error) {
	rng := rand.New(rand.NewSource(o.Seed))
	mode, err := phy.ModeByRate(24)
	if err != nil {
		return nil, err
	}
	ch, err := trialChannel(o.Scenario, channel.PositionC, false, 5)
	if err != nil {
		return nil, err
	}
	psdu := make([]byte, 256)
	rng.Read(psdu)
	tx, err := phy.BuildPacket(phy.TxConfig{Mode: mode}, psdu)
	if err != nil {
		return nil, err
	}
	// Silence subcarriers 9, 10 and 16 of symbol 0 (the paper's 10/11/17):
	// interval 5 between the 10 and the 16 encodes "0101".
	const sym = 0
	if _, err := icos.InsertSilencesInto(nil, tx.Grid, []icos.Pos{{Sym: sym, SC: 9}, {Sym: sym, SC: 10}, {Sym: sym, SC: 16}}); err != nil {
		return nil, err
	}
	samples, err := tx.Samples()
	if err != nil {
		return nil, err
	}
	rx, _, err := ch.Propagate(nil, samples, 0, fig10aSNR, rng)
	if err != nil {
		return nil, err
	}
	fe, err := phy.RunFrontEnd(rx)
	if err != nil {
		return nil, err
	}

	// Collect |Y| over the 52 occupied subcarriers in ascending logical
	// order, normalized to the maximum.
	mags := make([]float64, 0, 52)
	for k := -26; k <= 26; k++ {
		if k == 0 {
			continue
		}
		bin, err := ofdm.Bin(k)
		if err != nil {
			return nil, err
		}
		mags = append(mags, math.Sqrt(dsp.MagSq(fe.Bins[sym][bin])))
	}
	max := 0.0
	for _, m := range mags {
		if m > max {
			max = m
		}
	}
	for i := range mags {
		mags[i] /= max
	}
	return mags, nil
}

// fig10bMeasuredSNR is the calibrated NIC SNR of the Fig. 10(b)
// operating point (9.2 dB, as in the paper), fig10bPackets the packets per
// threshold point before scaling, and fig10bPoints the threshold points
// (fig10bReducedPoints below scale 1).
const (
	fig10bMeasuredSNR   = 9.2
	fig10bPackets       = 120
	fig10bPoints        = 25
	fig10bReducedPoints = 13
)

// fig10bPrelude is the operating point every threshold point shares.
type fig10bPrelude struct {
	actual     float64 // calibrated true SNR
	noiseFloor float64 // reference noise floor for the x axis
}

// fig10bTasks reproduces Fig. 10(b): false positive and false negative
// probabilities of silence detection as the (fixed) energy-detection
// threshold sweeps from far below the noise floor to far above the signal
// level. Too low a threshold misses silences (false negatives); too high a
// threshold reads faded data symbols as silences (false positives). The x
// axis is the threshold in dB relative to the estimated noise floor (the
// paper's absolute dBm axis shifted by its noise floor). Task 0 is
// reserved for the shared calibration prelude's RNG (pool.TaskRNG(seed,
// 0)); tasks 1..points are the threshold points, each recording its
// (FP, FN) probabilities.
func fig10bTasks(o RunOptions) TaskSet {
	packets := scaled(fig10bPackets, o.Scale)
	points := fig10bPoints
	if o.Scale < 1 {
		points = fig10bReducedPoints
	}
	relDB := make([]float64, points) // threshold, dB above the noise floor
	for pi := range relDB {
		relDB[pi] = -15 + 40*float64(pi)/float64(points-1)
	}
	prelude := sync.OnceValues(func() (fig10bPrelude, error) {
		mode, err := phy.ModeByRate(12)
		if err != nil {
			return fig10bPrelude{}, err
		}
		ch, err := trialChannel(o.Scenario, channel.PositionB, false, 4)
		if err != nil {
			return fig10bPrelude{}, err
		}
		rng := pool.TaskRNG(o.Seed, 0)
		scr := &trialScratch{}
		actual, err := calibrateActualSNR(scr, ch, 0, mode, fig10bMeasuredSNR, rng)
		if err != nil {
			return fig10bPrelude{}, err
		}
		pr, err := probe(scr, ch, 0, mode, 256, actual, rng)
		if err != nil {
			return fig10bPrelude{}, err
		}
		return fig10bPrelude{actual: actual, noiseFloor: pr.fe.NoiseVar}, nil
	})
	return tasks[[2]float64]{
		n: points + 1,
		run: func(ctx context.Context, i int, rng *rand.Rand) ([2]float64, error) {
			if i == 0 {
				return [2]float64{}, nil // reserved: the prelude's RNG
			}
			op, err := prelude()
			if err != nil {
				return [2]float64{}, err
			}
			mode, err := phy.ModeByRate(12)
			if err != nil {
				return [2]float64{}, err
			}
			ch, err := trialChannel(o.Scenario, channel.PositionB, false, 4)
			if err != nil {
				return [2]float64{}, err
			}
			scr := &trialScratch{}
			th := op.noiseFloor * dsp.Linear(relDB[i-1])
			var stats icos.DetectionStats
			for p := 0; p < packets; p++ {
				if err := ctx.Err(); err != nil {
					return [2]float64{}, err
				}
				r, err := runCoSTrial(scr, ch, 0, op.actual, cosTrialConfig{
					mode:        mode,
					psduLen:     1024,
					silences:    12,
					ctrlSCs:     fig10CtrlSCs,
					detector:    icos.Detector{FixedThreshold: th},
					controlOnly: true,
				}, rng)
				if err != nil {
					return [2]float64{}, err
				}
				stats.Add(r.detection)
			}
			return [2]float64{stats.FalsePositiveRate(), stats.FalseNegativeRate()}, nil
		},
		assemble: func(pts [][2]float64) (*Result, error) {
			res := &Result{
				ID:     "fig10b",
				Title:  "Detection accuracy vs energy-detection threshold (measured SNR 9.2 dB)",
				XLabel: "threshold (dB above noise floor)",
				YLabel: "probability",
			}
			res.Add(pairSeries("FalsePositive", relDB, pts[1:], 0))
			res.Add(pairSeries("FalseNegative", relDB, pts[1:], 1))
			return res, nil
		},
	}
}

// fig10cPackets is the packets per operating point of Figs. 10(c) and
// 10(d) before scaling (1000, as in the paper).
const fig10cPackets = 1000

// fig10cSNRs are the measured-SNR operating points of Figs. 10(c) and
// 10(d); fig10dReducedSNRs replaces them in Fig. 10(d) below scale 1.
var (
	fig10cSNRs        = []float64{3, 4, 6, 8, 10, 12, 14, 16, 18, 20}
	fig10dReducedSNRs = []float64{4, 8, 12, 16, 20}
)

// accuracyPoint is one operating point of the detection-accuracy
// measurement behind Figs. 10(c) and 10(d): it calibrates to the measured
// SNR, then accumulates the adaptive detector's statistics on rng,
// optionally under pulse interference, and returns the (FP, FN)
// probabilities.
func accuracyPoint(ctx context.Context, o RunOptions, snr float64, interfere bool, rng *rand.Rand) ([2]float64, error) {
	mode, err := phy.ModeByRate(12)
	if err != nil {
		return [2]float64{}, err
	}
	// Per task: a channel model owns tap scratch, so point-tasks must not
	// share one (the same variant is the same deterministic draw).
	ch, err := trialChannel(o.Scenario, channel.PositionB, false, 4)
	if err != nil {
		return [2]float64{}, err
	}
	scr := &trialScratch{}
	actual, err := calibrateActualSNR(scr, ch, 0, mode, snr, rng)
	if err != nil {
		return [2]float64{}, err
	}
	if interfere {
		// Only the trials see the pulses: calibration runs on the clean
		// channel.
		ch = scenario.Interfered(ch, channel.PulseInterferer{Power: 40, BurstLen: 160, StartProb: 0.004})
	}
	trial := cosTrialConfig{
		mode:        mode,
		psduLen:     1024,
		silences:    12,
		ctrlSCs:     fig10CtrlSCs,
		detector:    icos.Detector{Scheme: mode.Modulation},
		controlOnly: true,
	}
	var stats icos.DetectionStats
	for p := 0; p < scaled(fig10cPackets, o.Scale); p++ {
		if err := ctx.Err(); err != nil {
			return [2]float64{}, err
		}
		r, err := runCoSTrial(scr, ch, 0, actual, trial, rng)
		if err != nil {
			return [2]float64{}, err
		}
		stats.Add(r.detection)
	}
	return [2]float64{stats.FalsePositiveRate(), stats.FalseNegativeRate()}, nil
}

// pairSeries plots column col of two-metric point records against xs.
func pairSeries(name string, xs []float64, pts [][2]float64, col int) Series {
	s := Series{Name: name}
	for i, x := range xs {
		s.X = append(s.X, x)
		s.Y = append(s.Y, pts[i][col])
	}
	return s
}

// fig10cTasks reproduces Fig. 10(c): detection accuracy of the adaptive
// detector across channel SNRs; the false-negative probability stays below
// ~1% everywhere, while false positives rise only at very low SNR where
// deep fades approach the noise floor. One point-task per SNR operating
// point.
func fig10cTasks(o RunOptions) TaskSet {
	return tasks[[2]float64]{
		n: len(fig10cSNRs),
		run: func(ctx context.Context, i int, rng *rand.Rand) ([2]float64, error) {
			return accuracyPoint(ctx, o, fig10cSNRs[i], false, rng)
		},
		assemble: func(pts [][2]float64) (*Result, error) {
			res := &Result{
				ID:     "fig10c",
				Title:  "Detection accuracy vs measured SNR (adaptive threshold)",
				XLabel: "measured SNR (dB)",
				YLabel: "probability",
			}
			res.Add(pairSeries("FalsePositive", fig10cSNRs, pts, 0))
			res.Add(pairSeries("FalseNegative", fig10cSNRs, pts, 1))
			return res, nil
		},
	}
}

// fig10dTasks reproduces Fig. 10(d): the false-negative probability with
// and without strong pulse interference. Interference landing on a silent
// bin lifts it above threshold and the silence is missed. Tasks 0..n-1
// are the clean sweep's SNR points on their own task RNGs; tasks n..2n-1
// are the interference arm, which draws independent noise from the seed
// schedule of Seed+1 (pool.TaskRNG(Seed+1, i-n)) instead of the RNG it is
// handed.
func fig10dTasks(o RunOptions) TaskSet {
	snrs := fig10cSNRs
	if o.Scale < 1 {
		snrs = fig10dReducedSNRs
	}
	n := len(snrs)
	return tasks[[2]float64]{
		n: 2 * n,
		run: func(ctx context.Context, i int, rng *rand.Rand) ([2]float64, error) {
			if i < n {
				return accuracyPoint(ctx, o, snrs[i], false, rng)
			}
			return accuracyPoint(ctx, o, snrs[i-n], true, pool.TaskRNG(o.Seed+1, i-n))
		},
		assemble: func(pts [][2]float64) (*Result, error) {
			res := &Result{
				ID:     "fig10d",
				Title:  "Impact of strong interference on false negative probability",
				XLabel: "measured SNR (dB)",
				YLabel: "false negative probability",
			}
			res.Add(pairSeries("CoS with strong interference", snrs, pts[n:], 1))
			res.Add(pairSeries("CoS", snrs, pts[:n], 1))
			return res, nil
		},
	}
}
