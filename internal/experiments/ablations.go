package experiments

import (
	"context"
	"math/rand"
	"sort"
	"strconv"
	"sync"

	"cos/internal/channel"
	icos "cos/internal/cos"
	"cos/internal/dsp"
	"cos/internal/ofdm"
	"cos/internal/phy"
	"cos/internal/pool"
	"cos/internal/scenario"
)

// ablationPackets is the packets per measured point of every ablation
// before scaling.
const ablationPackets = 120

// ablationEVDTasks compares erasure Viterbi decoding (silences marked via
// the detected mask) against erasure-ignorant decoding (silences demapped
// as if they were data) as the silence load grows: PRR vs silences per
// packet. This isolates the value of Sec. III-E. It has one point-task per
// silence budget; each records the (EVD, erasure-ignorant) PRR pair.
func ablationEVDTasks(o RunOptions) TaskSet {
	const snr = 15.0
	packets := scaled(ablationPackets, o.Scale)
	budgets := []int{0, 4, 8, 16, 24, 32, 48, 64}
	return tasks[[2]float64]{
		n: len(budgets),
		run: func(ctx context.Context, i int, rng *rand.Rand) ([2]float64, error) {
			mode, err := phy.ModeByRate(24)
			if err != nil {
				return [2]float64{}, err
			}
			// Per task: a channel model owns tap scratch, so point-tasks
			// must not share one (the same variant is the same
			// deterministic draw).
			ch, err := trialChannel(o.Scenario, channel.PositionB, false, 11)
			if err != nil {
				return [2]float64{}, err
			}
			b := budgets[i]
			scr := &trialScratch{}
			ctrlSCs := fig10CtrlSCs
			if b > 0 {
				if sel, err := selectCtrlSCsForBudget(scr, ch, 0, snr, mode, mode.SymbolsForPSDU(1024), b, rng); err == nil {
					ctrlSCs = sel
				}
			}
			okEVD, okIgn := 0, 0
			for p := 0; p < packets; p++ {
				if err := ctx.Err(); err != nil {
					return [2]float64{}, err
				}
				trial := cosTrialConfig{
					mode: mode, psduLen: 1024, silences: b, ctrlSCs: ctrlSCs,
					detector: icos.Detector{Scheme: mode.Modulation},
				}
				r, err := runCoSTrial(scr, ch, 0, snr, trial, rng)
				if err != nil {
					continue
				}
				if r.dataOK {
					okEVD++
				}
				// Ignorant arm: decode without any erasure mask.
				trial.erasures = erasuresNone
				r, err = runCoSTrial(scr, ch, 0, snr, trial, rng)
				if err != nil {
					continue
				}
				if r.dataOK {
					okIgn++
				}
			}
			return [2]float64{float64(okEVD) / float64(packets), float64(okIgn) / float64(packets)}, nil
		},
		assemble: func(pts [][2]float64) (*Result, error) {
			res := &Result{
				ID:     "ablation-evd",
				Title:  "Erasure-aware vs erasure-ignorant decoding (24 Mb/s, 15 dB)",
				XLabel: "silence symbols per packet",
				YLabel: "packet reception rate",
			}
			evd := Series{Name: "ErasureViterbi"}
			ignorant := Series{Name: "ErasureIgnorant"}
			for i, b := range budgets {
				evd.X = append(evd.X, float64(b))
				evd.Y = append(evd.Y, pts[i][0])
				ignorant.X = append(ignorant.X, float64(b))
				ignorant.Y = append(ignorant.Y, pts[i][1])
			}
			res.Add(evd)
			res.Add(ignorant)
			return res, nil
		},
	}
}

// placementNames labels the placement strategies in task order.
var placementNames = []string{"WeakSubcarriers", "RandomSubcarriers", "StrongSubcarriers"}

// ablationPlacementTasks compares silence placement strategies at a fixed
// silence load: on the weakest subcarriers (CoS), on random subcarriers,
// and on the strongest subcarriers. Decoding uses the genie mask so the
// measurement isolates how many *new* symbol errors each placement adds,
// independent of detection quality — the claim of Sec. II-D. It has one
// point-task per (placement, budget) cell; each records its PRR. The weak
// and strong subcarrier sets are ranked once per TaskSet from the
// channel's response (genie knowledge, no randomness).
func ablationPlacementTasks(o RunOptions) TaskSet {
	const snr = 17.2 // just above the 16 dB threshold: the budget binds
	packets := scaled(ablationPackets, o.Scale)
	budgets := []int{16, 48, 96, 144}
	ranking := sync.OnceValues(func() ([2][]int, error) {
		ch, err := trialChannel(o.Scenario, channel.PositionA, false, 13)
		if err != nil {
			return [2][]int{}, err
		}
		return weakStrongSubcarriers(ch)
	})
	return tasks[float64]{
		n: len(placementNames) * len(budgets),
		run: func(ctx context.Context, i int, rng *rand.Rand) (float64, error) {
			weakStrong, err := ranking()
			if err != nil {
				return 0, err
			}
			mode, err := phy.ModeByRate(36)
			if err != nil {
				return 0, err
			}
			ch, err := trialChannel(o.Scenario, channel.PositionA, false, 13)
			if err != nil {
				return 0, err
			}
			pi, b := i/len(budgets), budgets[i%len(budgets)]
			nSym := mode.SymbolsForPSDU(1024)
			scr := &trialScratch{}
			ok := 0
			for p := 0; p < packets; p++ {
				if err := ctx.Err(); err != nil {
					return 0, err
				}
				var scs []int
				switch pi {
				case 0:
					scs = weakStrong[0]
				case 1:
					scs = rng.Perm(ofdm.NumData)[:8]
					sort.Ints(scs)
				case 2:
					scs = weakStrong[1]
				}
				positions, err := randomPlacement(rng, b, nSym, scs)
				if err != nil {
					continue
				}
				trial := cosTrialConfig{
					mode: mode, psduLen: 1024,
					ctrlSCs: scs, placement: positions, erasures: erasuresTruth,
					detector: icos.Detector{Scheme: mode.Modulation},
				}
				r, err := runCoSTrial(scr, ch, 0, snr, trial, rng)
				if err != nil {
					continue
				}
				if r.dataOK {
					ok++
				}
			}
			return float64(ok) / float64(packets), nil
		},
		assemble: func(prrs []float64) (*Result, error) {
			res := &Result{
				ID:     "ablation-placement",
				Title:  "Silence placement strategy vs PRR (36 Mb/s, 17.2 dB, genie mask)",
				XLabel: "silence symbols per packet",
				YLabel: "packet reception rate",
			}
			for pi, name := range placementNames {
				s := Series{Name: name}
				for bi, b := range budgets {
					s.X = append(s.X, float64(b))
					s.Y = append(s.Y, prrs[pi*len(budgets)+bi])
				}
				res.Add(s)
			}
			res.Note("genie erasure mask isolates placement quality from detection quality")
			return res, nil
		},
	}
}

// weakStrongSubcarriers ranks the data subcarriers by channel gain and
// returns the eight weakest and the eight strongest, each sorted by index.
func weakStrongSubcarriers(ch scenario.ChannelModel) ([2][]int, error) {
	h := ch.FrequencyResponse(0)
	type sub struct {
		idx  int
		gain float64
	}
	ranked := make([]sub, ofdm.NumData)
	for d := 0; d < ofdm.NumData; d++ {
		k, err := ofdm.DataIndex(d)
		if err != nil {
			return [2][]int{}, err
		}
		bin, err := ofdm.Bin(k)
		if err != nil {
			return [2][]int{}, err
		}
		ranked[d] = sub{idx: d, gain: dsp.MagSq(h[bin])}
	}
	sort.Slice(ranked, func(a, b int) bool { return ranked[a].gain < ranked[b].gain })
	pick := func(subs []sub) []int {
		out := make([]int, 0, len(subs))
		for _, s := range subs {
			out = append(out, s.idx)
		}
		sort.Ints(out)
		return out
	}
	return [2][]int{pick(ranked[:8]), pick(ranked[len(ranked)-8:])}, nil
}

// randomPlacement scatters n silences uniformly over the (symbol, ctrlSC)
// traversal of a packet.
func randomPlacement(rng *rand.Rand, n, nSym int, ctrlSCs []int) ([]icos.Pos, error) {
	total := nSym * len(ctrlSCs)
	if n > total {
		n = total
	}
	idx := rng.Perm(total)[:n]
	sort.Ints(idx)
	out := make([]icos.Pos, 0, n)
	for _, i := range idx {
		out = append(out, icos.Pos{Sym: i / len(ctrlSCs), SC: ctrlSCs[i%len(ctrlSCs)]})
	}
	return out, nil
}

// ablationThresholdTasks compares the adaptive per-subcarrier detector
// against a fixed global threshold on control-message delivery across SNRs
// — the value of the pilot-aided noise tracking of Sec. III-C. Task 0 is
// reserved for the fixed-threshold calibration prelude's RNG
// (pool.TaskRNG(seed, 0)); tasks 1..len(snrs) are the SNR points, each
// recording its (adaptive, fixed) control delivery rates.
func ablationThresholdTasks(o RunOptions) TaskSet {
	packets := scaled(ablationPackets, o.Scale)
	snrs := []float64{6, 9, 12, 15, 18, 21}
	// The fixed threshold is calibrated once at the middle SNR, then used
	// everywhere — what a non-adaptive implementation would do.
	fixedThreshold := sync.OnceValues(func() (float64, error) {
		mode, err := phy.ModeByRate(12)
		if err != nil {
			return 0, err
		}
		ch, err := trialChannel(o.Scenario, channel.PositionB, false, 4)
		if err != nil {
			return 0, err
		}
		rng := pool.TaskRNG(o.Seed, 0)
		scr := &trialScratch{}
		midActual, err := calibrateActualSNR(scr, ch, 0, mode, 12, rng)
		if err != nil {
			return 0, err
		}
		pr, err := probe(scr, ch, 0, mode, 256, midActual, rng)
		if err != nil {
			return 0, err
		}
		return 6 * pr.fe.NoiseVar, nil
	})
	return tasks[[2]float64]{
		n: len(snrs) + 1,
		run: func(ctx context.Context, i int, rng *rand.Rand) ([2]float64, error) {
			if i == 0 {
				return [2]float64{}, nil // reserved: the prelude's RNG
			}
			fixedTh, err := fixedThreshold()
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
			actual, err := calibrateActualSNR(scr, ch, 0, mode, snrs[i-1], rng)
			if err != nil {
				return [2]float64{}, err
			}
			// Both arms use the same per-SNR subcarrier selection so the
			// comparison isolates the detector's threshold policy.
			ctrlSCs, err := selectCtrlSCsForBudget(scr, ch, 0, actual, mode, mode.SymbolsForPSDU(1024), 12, rng)
			if err != nil {
				ctrlSCs = fig10CtrlSCs
			}
			okA, okF := 0, 0
			for p := 0; p < packets; p++ {
				if err := ctx.Err(); err != nil {
					return [2]float64{}, err
				}
				base := cosTrialConfig{
					mode: mode, psduLen: 1024, silences: 12, ctrlSCs: ctrlSCs,
					controlOnly: true,
				}
				base.detector = icos.Detector{Scheme: mode.Modulation}
				if r, err := runCoSTrial(scr, ch, 0, actual, base, rng); err == nil && r.ctrlOK {
					okA++
				}
				base.detector = icos.Detector{FixedThreshold: fixedTh}
				if r, err := runCoSTrial(scr, ch, 0, actual, base, rng); err == nil && r.ctrlOK {
					okF++
				}
			}
			return [2]float64{float64(okA) / float64(packets), float64(okF) / float64(packets)}, nil
		},
		assemble: func(pts [][2]float64) (*Result, error) {
			res := &Result{
				ID:     "ablation-threshold",
				Title:  "Adaptive vs fixed detection threshold: control delivery vs SNR",
				XLabel: "measured SNR (dB)",
				YLabel: "control message delivery rate",
			}
			res.Add(pairSeries("AdaptivePerSubcarrier", snrs, pts[1:], 0))
			res.Add(pairSeries("FixedGlobal", snrs, pts[1:], 1))
			return res, nil
		},
	}
}

// controlAccuracyTasks measures the paper's headline claim — control
// messages delivered with close to 100% accuracy across the practical SNR
// region. The trials are open-loop: 12 Mb/s fixed, control subcarriers
// selected once per point from clean probes, and no rate or feedback
// loop; embedding, detection and interval decoding run through the
// Link's cos-silence Embedding. It has one point-task per SNR point; each
// records its (control delivery, data PRR) pair.
func controlAccuracyTasks(o RunOptions) TaskSet {
	packets := scaled(ablationPackets, o.Scale)
	snrs := []float64{8, 10, 12, 14, 16, 18, 20, 22}
	return tasks[[2]float64]{
		n: len(snrs),
		run: func(ctx context.Context, i int, rng *rand.Rand) ([2]float64, error) {
			mode, err := phy.ModeByRate(12)
			if err != nil {
				return [2]float64{}, err
			}
			// Per task: a channel model owns tap scratch, so point-tasks
			// must not share one (the same variant is the same
			// deterministic draw).
			ch, err := trialChannel(o.Scenario, channel.PositionB, false, 19)
			if err != nil {
				return [2]float64{}, err
			}
			scr := &trialScratch{}
			actual, err := calibrateActualSNR(scr, ch, 0, mode, snrs[i], rng)
			if err != nil {
				return [2]float64{}, err
			}
			ctrlSCs, err := selectCtrlSCsForBudget(scr, ch, 0, actual, mode, mode.SymbolsForPSDU(1024), 12, rng)
			if err != nil {
				ctrlSCs = fig10CtrlSCs
			}
			okC, okD := 0, 0
			for p := 0; p < packets; p++ {
				if err := ctx.Err(); err != nil {
					return [2]float64{}, err
				}
				r, err := runCoSTrial(scr, ch, 0, actual, cosTrialConfig{
					mode: mode, psduLen: 1024, silences: 12, ctrlSCs: ctrlSCs,
					detector: icos.Detector{Scheme: mode.Modulation},
				}, rng)
				if err != nil {
					continue
				}
				if r.ctrlOK {
					okC++
				}
				if r.dataOK {
					okD++
				}
			}
			return [2]float64{float64(okC) / float64(packets), float64(okD) / float64(packets)}, nil
		},
		assemble: func(pts [][2]float64) (*Result, error) {
			res := &Result{
				ID:     "accuracy",
				Title:  "Control message delivery accuracy vs measured SNR",
				XLabel: "measured SNR (dB)",
				YLabel: "delivery rate",
			}
			res.Add(pairSeries("ControlDelivery", snrs, pts, 0))
			res.Add(pairSeries("DataPRR", snrs, pts, 1))
			return res, nil
		},
	}
}

// ablationQuantizationTasks measures the PRR cost of fixed-point LLRs in
// the CoS pipeline: packets with a realistic silence load decoded with
// float, 5-bit, 4-bit and 3-bit decoder inputs. It has one point-task per
// SNR point, the widths swept inside the task (they share the point's
// calibration); each records its PRR per width.
func ablationQuantizationTasks(o RunOptions) TaskSet {
	packets := scaled(ablationPackets, o.Scale)
	snrs := []float64{13, 14, 15, 16}
	widths := []int{0, 5, 4, 3} // 0 = float
	return tasks[[]float64]{
		n: len(snrs),
		run: func(ctx context.Context, i int, rng *rand.Rand) ([]float64, error) {
			mode, err := phy.ModeByRate(24)
			if err != nil {
				return nil, err
			}
			// Per task: a channel model owns tap scratch, so point-tasks
			// must not share one (the same variant is the same
			// deterministic draw).
			ch, err := trialChannel(o.Scenario, channel.PositionB, false, 11)
			if err != nil {
				return nil, err
			}
			scr := &trialScratch{}
			actual, err := calibrateActualSNR(scr, ch, 0, mode, snrs[i], rng)
			if err != nil {
				return nil, err
			}
			row := make([]float64, len(widths))
			for wi, w := range widths {
				ok := 0
				for p := 0; p < packets; p++ {
					if err := ctx.Err(); err != nil {
						return nil, err
					}
					// The genie mask makes detection (and thus subcarrier
					// selection) irrelevant here, so the paper's fixed
					// mid-band control set keeps every cell comparable.
					r, err := runCoSTrial(scr, ch, 0, actual, cosTrialConfig{
						mode: mode, psduLen: 1024, silences: 12, ctrlSCs: fig10CtrlSCs,
						detector: icos.Detector{Scheme: mode.Modulation},
						erasures: erasuresTruth, // isolate LLR width from detection noise
						llrBits:  w,
					}, rng)
					if err != nil {
						continue
					}
					if r.dataOK {
						ok++
					}
				}
				row[wi] = float64(ok) / float64(packets)
			}
			return row, nil
		},
		assemble: func(prrs [][]float64) (*Result, error) {
			res := &Result{
				ID:     "ablation-quantization",
				Title:  "Fixed-point LLR width vs PRR with CoS active (24 Mb/s)",
				XLabel: "measured SNR (dB)",
				YLabel: "packet reception rate",
			}
			for si, row := range prrs {
				if err := checkLen("ablation-quantization", si, len(row), len(widths)); err != nil {
					return nil, err
				}
			}
			for wi, w := range widths {
				name := "float"
				if w != 0 {
					name = strconv.Itoa(w) + "-bit"
				}
				s := Series{Name: name}
				for si, snr := range snrs {
					s.X = append(s.X, snr)
					s.Y = append(s.Y, prrs[si][wi])
				}
				res.Add(s)
			}
			res.Note("erasures survive quantization exactly (zero metric in any width); genie mask isolates LLR width from detection noise")
			return res, nil
		},
	}
}
