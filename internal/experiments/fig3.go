package experiments

import (
	"context"
	"math/rand"

	"cos/internal/channel"
	"cos/internal/phy"
	"cos/internal/scenario"
)

// Fig3Config parameterizes the decoder-input BER measurement.
type Fig3Config struct {
	// MinSNR and MaxSNR bound the measured-SNR sweep (defaults 12, 17.3 —
	// the 24 Mb/s operating band of the paper's Fig. 3).
	MinSNR, MaxSNR float64
	// Step is the sweep step in dB (default 0.5).
	Step float64
	// Packets is the number of packets averaged per point (default 80).
	Packets int
	// Scale shrinks Packets for quick runs.
	Scale float64
	// Seed drives all randomness.
	Seed int64
	// Workers bounds the point-task pool (0 = GOMAXPROCS).
	Workers int
	// Scenario is an optional scenario reference ("" = default world).
	Scenario string
}

func (c *Fig3Config) setDefaults() {
	if c.MaxSNR == 0 {
		c.MinSNR, c.MaxSNR = 12, 17.3
	}
	if c.Step == 0 {
		c.Step = 0.5
	}
	if c.Packets == 0 {
		c.Packets = 80
	}
	if c.Scale == 0 {
		c.Scale = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

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

// snrPoints is the sweep grid: task 0 is the decoder tolerance anchor at
// MinSNR, tasks 1..n the swept points.
func (c *Fig3Config) snrPoints() []float64 {
	snrs := []float64{c.MinSNR}
	for snr := c.MinSNR; snr <= c.MaxSNR+1e-9; snr += c.Step {
		snrs = append(snrs, snr)
	}
	return snrs
}

// fig3Record is one point-task's serialized outcome: the decoder-input BER
// measured at its SNR point.
type fig3Record struct {
	BER float64 `json:"ber"`
}

// fig3Tasks is Fig. 3 decomposed into one point-task per SNR point plus
// the 12 dB tolerance anchor (task 0).
func fig3Tasks(cfg Fig3Config) TaskSet {
	cfg.setDefaults()
	snrs := cfg.snrPoints()
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
			ch, err := trialChannel(cfg.Scenario, channel.PositionA, false, 7)
			if err != nil {
				return fig3Record{}, err
			}
			ber, err := fig3BERAt(ctx, ch, mode, snrs[i], scaled(cfg.Packets, cfg.Scale), rng)
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

// Fig3DecoderBER reproduces Fig. 3: decoder-input BER versus measured SNR
// at 24 Mb/s. "Actual BER" is the hard-decision error rate on the coded
// bits entering the Viterbi decoder; "Redundant BER" is the headroom —
// the BER the decoder could still tolerate, estimated as the decoder-input
// BER at the mode's minimum required SNR (12 dB) minus the actual BER.
//
// The sweep decomposes into one point-task per SNR point plus one for the
// 12 dB tolerance anchor; tasks run on the worker pool with private RNGs,
// so parallel output is bit-identical to serial.
func Fig3DecoderBER(ctx context.Context, cfg Fig3Config) (*Result, error) {
	return runTasks(ctx, "fig3", RunOptions{Workers: cfg.Workers, Seed: cfg.Seed}, fig3Tasks(cfg))
}
