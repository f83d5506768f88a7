package experiments

import (
	"context"
	"math/rand"

	"cos/internal/channel"
	"cos/internal/ofdm"
	"cos/internal/phy"
)

// Fig5Config parameterizes the per-subcarrier EVM measurement.
type Fig5Config struct {
	// SNR is the true channel SNR in dB (default 18).
	SNR float64
	// Packets averaged per position (default 10).
	Packets int
	// Scale shrinks Packets.
	Scale float64
	// Seed drives all randomness.
	Seed int64
	// Workers bounds the point-task pool (0 = GOMAXPROCS).
	Workers int
	// Scenario is an optional scenario reference ("" = default world).
	Scenario string
}

func (c *Fig5Config) setDefaults() {
	if c.SNR == 0 {
		c.SNR = 18
	}
	if c.Packets == 0 {
		c.Packets = 10
	}
	if c.Scale == 0 {
		c.Scale = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// fig5Tasks is Fig. 5 with one point-task per receiver position; each
// task's record is its per-subcarrier EVM sum over the packets.
func fig5Tasks(cfg Fig5Config) TaskSet {
	cfg.setDefaults()
	packets := scaled(cfg.Packets, cfg.Scale)
	positions := channel.Positions()
	return tasks[[ofdm.NumData]float64]{
		n: len(positions),
		run: func(ctx context.Context, i int, rng *rand.Rand) (acc [ofdm.NumData]float64, err error) {
			mode, err := phy.ModeByRate(24)
			if err != nil {
				return acc, err
			}
			ch, err := trialChannel(cfg.Scenario, positions[i], false, 0)
			if err != nil {
				return acc, err
			}
			scr := &trialScratch{}
			for p := 0; p < packets; p++ {
				if err := ctx.Err(); err != nil {
					return acc, err
				}
				pr, err := probe(scr, ch, 0, mode, 1024, cfg.SNR, rng)
				if err != nil {
					return acc, err
				}
				diag, err := phy.Diagnose(pr.tx, pr.fe, nil, nil)
				if err != nil {
					return acc, err
				}
				for d := 0; d < ofdm.NumData; d++ {
					acc[d] += diag.EVM[d]
				}
			}
			return acc, nil
		},
		assemble: func(accs [][ofdm.NumData]float64) (*Result, error) {
			res := &Result{
				ID:     "fig5",
				Title:  "Per-subcarrier EVM at three positions (frequency selective fading)",
				XLabel: "subcarrier index (1-48)",
				YLabel: "EVM (%)",
			}
			for i, pos := range positions {
				s := Series{Name: pos.String()}
				for d := 0; d < ofdm.NumData; d++ {
					s.X = append(s.X, float64(d+1))
					s.Y = append(s.Y, 100*accs[i][d]/float64(packets))
				}
				res.Add(s)
			}
			res.Note("EVM computed per Eq. (1) from equalized symbols against re-mapped ideal points")
			return res, nil
		},
	}
}

// Fig5EVM reproduces Fig. 5: measured per-subcarrier EVM (percent) of the
// 48 data subcarriers at the three receiver positions. Frequency-selective
// fading makes different subcarriers — and different positions — exhibit
// very different EVM. Each position is one point-task.
func Fig5EVM(ctx context.Context, cfg Fig5Config) (*Result, error) {
	return runTasks(ctx, "fig5", RunOptions{Workers: cfg.Workers, Seed: cfg.Seed}, fig5Tasks(cfg))
}
