package experiments

import (
	"context"
	"math/rand"
	"sort"

	"cos/internal/channel"
	"cos/internal/phy"
)

// The Fig. 2 sweep: the measured-SNR range in dB, as in the paper's
// Fig. 2, stepped fig2Step dB with fig2Variants channel realizations
// averaged per point (fig2ReducedStep and fig2ReducedVariants below scale
// 1).
const (
	fig2MinSNR, fig2MaxSNR            float64 = 5, 25
	fig2Step, fig2ReducedStep         float64 = 1, 2
	fig2Variants, fig2ReducedVariants         = 3, 2
)

// fig2Record is one (variant, SNR) probe's serialized outcome. ok=false
// marks an out-of-range SNR estimate whose slot stays empty.
type fig2Record struct {
	OK       bool    `json:"ok"`
	Measured float64 `json:"measured"`
	MinReq   float64 `json:"min_req"`
	Actual   float64 `json:"actual"`
}

// fig2Tasks reproduces Fig. 2: the gap between the minimum SNR required by
// the adaptively selected data rate and the actual channel SNR, as a
// function of the receiver's measured SNR. Two mechanisms open the gap:
// the stair-case rate table (discrete rates under a continuous SNR) and the
// NIC's frequency-selectivity-blind SNR estimate sitting below the true
// mean SNR. It decomposes into one point-task per (variant, SNR) grid
// cell.
func fig2Tasks(o RunOptions) TaskSet {
	step, variants := fig2Step, fig2Variants
	if o.Scale < 1 {
		step, variants = fig2ReducedStep, fig2ReducedVariants
	}
	steps := int((fig2MaxSNR-fig2MinSNR)/step) + 1
	return tasks[fig2Record]{
		n: variants * steps,
		run: func(ctx context.Context, i int, rng *rand.Rand) (fig2Record, error) {
			probeMode, err := phy.ModeByRate(6)
			if err != nil {
				return fig2Record{}, err
			}
			v := i / steps
			snr := fig2MinSNR + float64(i%steps)*step
			ch, err := trialChannel(o.Scenario, channel.PositionA, false, int64(v+1))
			if err != nil {
				return fig2Record{}, err
			}
			pr, err := probe(&trialScratch{}, ch, 0, probeMode, 256, snr, rng)
			if err != nil {
				return fig2Record{}, err
			}
			measured, err := pr.fe.MeasuredSNRdB()
			if err != nil {
				return fig2Record{}, err
			}
			if measured < fig2MinSNR || measured > fig2MaxSNR {
				return fig2Record{}, nil
			}
			mode := phy.SelectMode(measured)
			return fig2Record{OK: true, Measured: measured, MinReq: mode.MinSNRdB, Actual: pr.actualSNR}, nil
		},
		assemble: func(recs []fig2Record) (*Result, error) {
			kept := make([]fig2Record, 0, len(recs))
			for _, rec := range recs {
				if rec.OK {
					kept = append(kept, rec)
				}
			}
			sort.SliceStable(kept, func(a, b int) bool { return kept[a].Measured < kept[b].Measured })

			res := &Result{
				ID:     "fig2",
				Title:  "SNR gap between minimum required SNR and actual channel SNR",
				XLabel: "measured SNR (dB)",
				YLabel: "SNR (dB)",
			}
			minReq := Series{Name: "MinRequiredSNR"}
			actual := Series{Name: "ActualSNR"}
			for _, p := range kept {
				minReq.X = append(minReq.X, p.Measured)
				minReq.Y = append(minReq.Y, p.MinReq)
				actual.X = append(actual.X, p.Measured)
				actual.Y = append(actual.Y, p.Actual)
			}
			res.Add(minReq)
			res.Add(actual)
			res.Note("actual SNR always sits above the stair-case minimum: the gap CoS harvests")
			return res, nil
		},
	}
}
