package experiments

import (
	"context"
	"math/rand"

	"cos/internal/channel"
	"cos/internal/phy"
	"cos/internal/scenario"
)

// The Fig. 3 sweep spans the 24 Mb/s operating band of the paper's
// Fig. 3 (measured SNR 12 to 17.3 dB) in fig3Step dB steps and averages
// fig3Packets packets per point before scaling.
const (
	fig3MinSNR, fig3MaxSNR float64 = 12, 17.3
	fig3Step               float64 = 0.5
	fig3Packets                    = 80
)

// fig3BERAt measures the decoder-input BER at one target measured SNR; it
// is the body of one point-task and draws only from its private rng.
func fig3BERAt(ctx context.Context, ch scenario.ChannelModel, mode phy.Mode, targetMeasured float64, packets int, rng *rand.Rand) (float64, error) {
	scr := &trialScratch{}
	actual, err := calibrateActualSNR(scr, ch, 0, mode, targetMeasured, rng)
	if err != nil {
		return 0, err
	}
	var errsTotal, bitsTotal int
	for p := 0; p < packets; p++ {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		pr, err := probe(scr, ch, 0, mode, 1024, actual, rng)
		if err != nil {
			return 0, err
		}
		dec, err := pr.fe.Decode(phy.DecodeConfig{Mode: mode, PSDULen: 1024})
		if err != nil {
			return 0, err
		}
		diag, err := phy.Diagnose(pr.tx, pr.fe, nil, dec.HardCodedBits)
		if err != nil {
			return 0, err
		}
		errsTotal += diag.DecoderInputBitErrors
		bitsTotal += diag.DecoderInputBits
	}
	if bitsTotal == 0 {
		return 0, nil
	}
	return float64(errsTotal) / float64(bitsTotal), nil
}

// fig3Record is one point-task's serialized outcome: the decoder-input BER
// measured at its SNR point.
type fig3Record struct {
	BER float64 `json:"ber"`
}

// fig3Tasks reproduces Fig. 3: decoder-input BER versus measured SNR at
// 24 Mb/s. "Actual BER" is the hard-decision error rate on the coded bits
// entering the Viterbi decoder; "Redundant BER" is the headroom — the BER
// the decoder could still tolerate, estimated as the decoder-input BER at
// the mode's minimum required SNR (12 dB) minus the actual BER. It
// decomposes into one point-task per SNR point plus the 12 dB tolerance
// anchor (task 0).
func fig3Tasks(o RunOptions) TaskSet {
	// Task 0 is the decoder tolerance anchor at fig3MinSNR, tasks 1..n the
	// swept points.
	snrs := []float64{fig3MinSNR}
	for snr := fig3MinSNR; snr <= fig3MaxSNR+1e-9; snr += fig3Step {
		snrs = append(snrs, snr)
	}
	return tasks[fig3Record]{
		n: len(snrs),
		run: func(ctx context.Context, i int, rng *rand.Rand) (fig3Record, error) {
			mode, err := phy.ModeByRate(24)
			if err != nil {
				return fig3Record{}, err
			}
			// Per task: a channel model owns tap scratch, so point-tasks must
			// not share one (the realization itself is deterministic per
			// variant, so every task sees the same channel).
			ch, err := trialChannel(o.Scenario, channel.PositionA, false, 7)
			if err != nil {
				return fig3Record{}, err
			}
			ber, err := fig3BERAt(ctx, ch, mode, snrs[i], scaled(fig3Packets, o.Scale), rng)
			return fig3Record{BER: ber}, err
		},
		assemble: func(recs []fig3Record) (*Result, error) {
			tolerable := recs[0].BER
			res := &Result{
				ID:     "fig3",
				Title:  "Decoder-input BER vs measured SNR at 24 Mb/s",
				XLabel: "measured SNR (dB)",
				YLabel: "decoder-input BER",
			}
			actualSer := Series{Name: "ActualBER"}
			redundSer := Series{Name: "RedundantBER"}
			for i, snr := range snrs[1:] {
				ber := recs[i+1].BER
				red := tolerable - ber
				if red < 0 {
					red = 0
				}
				actualSer.X = append(actualSer.X, snr)
				actualSer.Y = append(actualSer.Y, ber)
				redundSer.X = append(redundSer.X, snr)
				redundSer.Y = append(redundSer.Y, red)
			}
			res.Add(actualSer)
			res.Add(redundSer)
			res.Note("tolerable decoder-input BER anchored at the 12 dB minimum required SNR: %.5f", tolerable)
			return res, nil
		},
	}
}
