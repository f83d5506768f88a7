package experiments

import (
	"context"
	"math/rand"
	"sort"

	"cos/internal/channel"
	"cos/internal/phy"
)

// fig2MinSNR and fig2MaxSNR bound the swept measured-SNR range in dB, as
// in the paper's Fig. 2.
const fig2MinSNR, fig2MaxSNR float64 = 5, 25

// Fig2Config parameterizes the SNR-gap measurement.
type Fig2Config struct {
	// Step is the sweep step in dB (default 1).
	Step float64
	// Variants is the number of independent channel realizations averaged
	// per point (default 3).
	Variants int
	// Scenario is an optional scenario reference ("" = default world).
	Scenario string
}

func (c *Fig2Config) setDefaults() {
	if c.Step == 0 {
		c.Step = 1
	}
	if c.Variants == 0 {
		c.Variants = 3
	}
}

// steps is the number of SNR points in the sweep grid.
func (c *Fig2Config) steps() int {
	n := 0
	for snr := fig2MinSNR; snr <= fig2MaxSNR+1e-9; snr += c.Step {
		n++
	}
	return n
}

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
func fig2Tasks(cfg Fig2Config) TaskSet {
	cfg.setDefaults()
	steps := cfg.steps()
	return tasks[fig2Record]{
		n: cfg.Variants * steps,
		run: func(ctx context.Context, i int, rng *rand.Rand) (fig2Record, error) {
			probeMode, err := phy.ModeByRate(6)
			if err != nil {
				return fig2Record{}, err
			}
			v := i / steps
			snr := fig2MinSNR + float64(i%steps)*cfg.Step
			ch, err := trialChannel(cfg.Scenario, channel.PositionA, false, int64(v+1))
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
