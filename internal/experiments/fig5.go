package experiments

import (
	"context"
	"math/rand"

	"cos/internal/channel"
	"cos/internal/ofdm"
	"cos/internal/phy"
)

// fig5SNR is the true channel SNR in dB, and fig5Packets the packets
// averaged per position before scaling.
const (
	fig5SNR     = 18
	fig5Packets = 10
)

// fig5Tasks reproduces Fig. 5: measured per-subcarrier EVM (percent) of
// the 48 data subcarriers at the three receiver positions. Frequency-
// selective fading makes different subcarriers — and different positions —
// exhibit very different EVM. Each position is one point-task, whose
// record is its per-subcarrier EVM sum over the packets.
func fig5Tasks(o RunOptions) TaskSet {
	packets := scaled(fig5Packets, o.Scale)
	positions := channel.Positions()
	return tasks[[ofdm.NumData]float64]{
		n: len(positions),
		run: func(ctx context.Context, i int, rng *rand.Rand) (acc [ofdm.NumData]float64, err error) {
			mode, err := phy.ModeByRate(24)
			if err != nil {
				return acc, err
			}
			ch, err := trialChannel(o.Scenario, positions[i], false, 0)
			if err != nil {
				return acc, err
			}
			scr := &trialScratch{}
			for p := 0; p < packets; p++ {
				if err := ctx.Err(); err != nil {
					return acc, err
				}
				pr, err := probe(scr, ch, 0, mode, 1024, fig5SNR, rng)
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
