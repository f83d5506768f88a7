package experiments

import (
	"context"
	"math/rand"

	"cos/internal/channel"
	icos "cos/internal/cos"
	"cos/internal/phy"
	"cos/internal/scenario"
)

// The Fig. 9 operating point: fig9PSDULen-byte packets, fig9Packets
// packets per candidate silence budget before scaling (150 tolerate one
// loss at fig9TargetPRR), and fig9PointsPerMode measured-SNR points inside
// each mode's operating band (fig9ReducedPointsPerMode below scale 1).
const (
	fig9PSDULen              = 1024
	fig9Packets              = 150
	fig9PointsPerMode        = 3
	fig9ReducedPointsPerMode = 2
)

// fig9TargetPRR is the required packet reception rate.
const fig9TargetPRR float64 = 0.993

// maxSilenceBudget caps the binary search; beyond this the erasure load is
// far past any code's correction capability for 1 KB packets.
const maxSilenceBudget = 160

// fig9Point is one (mode, SNR point) task's outcome: the measured-SNR
// target and the sustainable silence rate Rm there.
type fig9Point struct {
	Target float64 `json:"target"`
	Rm     float64 `json:"rm"`
}

// fig9Tasks reproduces Fig. 9: Rm, the maximum number of silence symbols
// per second sustainable at packet reception rate >= fig9TargetPRR, as a
// function of measured SNR, for the six modes the paper evaluates. Within
// a mode's band Rm rises with SNR (more spare code redundancy); at each
// rate switch the budget resets; lower code rates and lower-order
// modulations support higher Rm. It has one point-task per (mode, SNR
// point) pair — each runs its own calibration and PRR binary search on a
// private RNG — so the sweep parallelizes across the full mode grid.
func fig9Tasks(o RunOptions) TaskSet {
	packets := scaled(fig9Packets, o.Scale)
	points := fig9PointsPerMode
	if o.Scale < 1 {
		points = fig9ReducedPointsPerMode
	}
	modes := phy.EvaluatedModes()
	return tasks[fig9Point]{
		n: len(modes) * points,
		run: func(ctx context.Context, i int, rng *rand.Rand) (fig9Point, error) {
			// Per task: a channel model owns tap scratch, so point-tasks
			// must not share one (the same variant is the same
			// deterministic draw).
			ch, err := trialChannel(o.Scenario, channel.PositionB, false, 3)
			if err != nil {
				return fig9Point{}, err
			}
			mi, p := i/points, i%points
			scr := &trialScratch{}
			mode := modes[mi]
			// The mode's measured-SNR band: its threshold up to the next
			// mode's (or +3 dB for the fastest).
			lo := mode.MinSNRdB + 0.3
			hi := mode.MinSNRdB + 3
			if mi+1 < len(modes) {
				hi = modes[mi+1].MinSNRdB - 0.3
			}
			target := lo
			if points > 1 {
				target = lo + (hi-lo)*float64(p)/float64(points-1)
			}
			actual, err := calibrateActualSNR(scr, ch, 0, mode, target, rng)
			if err != nil {
				return fig9Point{}, err
			}
			budget, err := maxBudgetAtPRR(ctx, scr, ch, actual, mode, packets, rng)
			if err != nil {
				return fig9Point{}, err
			}
			return fig9Point{Target: target, Rm: icos.SilencesPerSecond(budget, mode, fig9PSDULen)}, nil
		},
		assemble: func(pts []fig9Point) (*Result, error) {
			res := &Result{
				ID:     "fig9",
				Title:  "Maximum silence symbols per second (Rm) vs measured SNR",
				XLabel: "measured SNR (dB)",
				YLabel: "Rm (silence symbols/s)",
			}
			for mi, mode := range modes {
				s := Series{Name: modeLabel(mode)}
				for _, pt := range pts[mi*points : (mi+1)*points] {
					s.X = append(s.X, pt.Target)
					s.Y = append(s.Y, pt.Rm)
				}
				res.Add(s)
			}
			res.Note("PRR target %.3f over %d packets per trial; silence placement on weak detectable subcarriers; detected-mask erasure decoding", fig9TargetPRR, packets)
			return res, nil
		},
	}
}

// maxBudgetAtPRR binary-searches the largest silence budget whose PRR meets
// the target.
func maxBudgetAtPRR(ctx context.Context, scr *trialScratch, ch scenario.ChannelModel, actualSNR float64, mode phy.Mode, packets int, rng *rand.Rand) (int, error) {
	nSym := mode.SymbolsForPSDU(fig9PSDULen)
	prrOK := func(budget int) (bool, error) {
		if budget == 0 {
			return true, nil
		}
		ctrlSCs, err := selectCtrlSCsForBudget(scr, ch, 0, actualSNR, mode, nSym, budget, rng)
		if err != nil {
			return false, nil // no usable control subcarriers: budget unsustainable
		}
		allowed := int(float64(packets) * (1 - fig9TargetPRR))
		failures := 0
		trial := cosTrialConfig{
			mode:     mode,
			psduLen:  fig9PSDULen,
			silences: budget,
			ctrlSCs:  ctrlSCs,
			detector: icos.Detector{Scheme: mode.Modulation},
		}
		for p := 0; p < packets; p++ {
			if err := ctx.Err(); err != nil {
				return false, err
			}
			r, err := runCoSTrial(scr, ch, 0, actualSNR, trial, rng)
			if err != nil {
				// Oversized messages for the capacity mean the budget does
				// not fit at all.
				return false, nil
			}
			if !r.dataOK {
				failures++
				if failures > allowed {
					return false, nil
				}
			}
		}
		return true, nil
	}

	lo, hi := 0, maxSilenceBudget // lo always feasible, hi presumed infeasible
	for lo < hi-1 {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		mid := (lo + hi) / 2
		ok, err := prrOK(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}
