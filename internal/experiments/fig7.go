package experiments

import (
	"context"
	"math/rand"
	"strconv"

	"cos/internal/channel"
	"cos/internal/dsp"
	"cos/internal/modulation"
	"cos/internal/ofdm"
	"cos/internal/phy"
	"cos/internal/scenario"
)

// fig7SNR is the true channel SNR in dB (the paper's lab links were
// short-range and strong), fig7Avg the packets averaged per D(t) snapshot
// to suppress estimator noise, and fig7Draws the (t, t+tau) sample pairs
// per tau for the CDF before scaling.
const (
	fig7SNR   = 22
	fig7Avg   = 4
	fig7Draws = 120
)

// fig7TausMs are the evaluated time gaps in milliseconds, as in the paper.
var fig7TausMs = []float64{10, 20, 30, 40}

// errorVectorSnapshot measures the per-subcarrier mean error-vector
// magnitudes D(t) and EVM(t) at fig7SNR, averaged over fig7Avg known
// packets at time t to suppress estimator noise (the channel is static
// within a snapshot).
func errorVectorSnapshot(ctx context.Context, ch scenario.ChannelModel, t float64, mode phy.Mode, rng *rand.Rand) (d, evm []float64, err error) {
	scr := &trialScratch{}
	dAcc := make([]float64, ofdm.NumData)
	evmAcc := make([]float64, ofdm.NumData)
	for i := 0; i < fig7Avg; i++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		pr, err := probe(scr, ch, t, mode, 1024, fig7SNR, rng)
		if err != nil {
			return nil, nil, err
		}
		diag, err := phy.Diagnose(pr.tx, pr.fe, nil, nil)
		if err != nil {
			return nil, nil, err
		}
		for k := 0; k < ofdm.NumData; k++ {
			dAcc[k] += diag.ErrorVectors[k]
			evmAcc[k] += diag.EVM[k]
		}
	}
	for k := 0; k < ofdm.NumData; k++ {
		dAcc[k] /= fig7Avg
		evmAcc[k] /= fig7Avg
	}
	return dAcc, evmAcc, nil
}

// fig7Record is one Fig. 7 point-task's outcome: a snapshot task's
// per-subcarrier EVM vector, or a draw task's nabla-EVM sample.
type fig7Record struct {
	EVM   []float64 `json:"evm,omitempty"`
	Nabla float64   `json:"nabla,omitempty"`
}

// fig7Tasks reproduces Fig. 7 in the indoor mobile scenario: (a)
// per-subcarrier EVM snapshots separated by time gap tau, showing the
// channel's frequency signature persists across tens of milliseconds, and
// (b) the CDF of the normalized EVM change (Eq. (2)) for each tau. It has
// two kinds of point-tasks: snapshot tasks
// 0..len(taus) for part (a) — task 0 is the tau=0 baseline — and one task
// per (tau, draw) pair for part (b), each measuring an independent D(t),
// D(t+tau) pair.
func fig7Tasks(o RunOptions) TaskSet {
	draws := scaled(fig7Draws, o.Scale)
	taus := fig7TausMs
	const t0 = 0.050
	return tasks[fig7Record]{
		n: 1 + len(taus) + len(taus)*draws,
		run: func(ctx context.Context, i int, rng *rand.Rand) (fig7Record, error) {
			mode, err := phy.ModeByRate(24)
			if err != nil {
				return fig7Record{}, err
			}
			// Per task: a channel model owns tap scratch, so point-tasks
			// must not share one (variant 0 of the same geometry is the
			// same draw).
			ch, err := trialChannel(o.Scenario, channel.PositionC, true, 0)
			if err != nil {
				return fig7Record{}, err
			}
			if i <= len(taus) { // snapshot task for part (a)
				t := t0
				if i > 0 {
					t += taus[i-1] / 1000
				}
				_, evm, err := errorVectorSnapshot(ctx, ch, t, mode, rng)
				return fig7Record{EVM: evm}, err
			}
			j := i - 1 - len(taus)
			tau := taus[j/draws]
			t := 0.010 + float64(j%draws)*0.0075
			dT, _, err := errorVectorSnapshot(ctx, ch, t, mode, rng)
			if err != nil {
				return fig7Record{}, err
			}
			dTau, _, err := errorVectorSnapshot(ctx, ch, t+tau/1000, mode, rng)
			if err != nil {
				return fig7Record{}, err
			}
			nabla, err := modulation.NablaEVM(dT, dTau)
			return fig7Record{Nabla: nabla}, err
		},
		assemble: func(recs []fig7Record) (*Result, error) {
			res := &Result{
				ID:     "fig7",
				Title:  "Temporal selectivity of subcarriers (mobile, walking speed)",
				XLabel: "subcarrier (a) / nabla-EVM (b)",
				YLabel: "EVM % (a) / CDF (b)",
			}
			names := []string{"EVM tau=0ms"}
			for _, tau := range taus {
				names = append(names, "EVM tau="+fmtMs(tau))
			}
			for i, name := range names {
				if err := checkLen("fig7", i, len(recs[i].EVM), ofdm.NumData); err != nil {
					return nil, err
				}
				s := Series{Name: name}
				for d := 0; d < ofdm.NumData; d++ {
					s.X = append(s.X, float64(d+1))
					s.Y = append(s.Y, 100*recs[i].EVM[d])
				}
				res.Add(s)
			}
			for ti, tau := range taus {
				nablas := make([]float64, draws)
				for di := range nablas {
					nablas[di] = recs[1+len(taus)+ti*draws+di].Nabla
				}
				s := Series{Name: "CDF tau=" + fmtMs(tau)}
				for _, p := range dsp.EmpiricalCDF(nablas) {
					s.X = append(s.X, p.Value)
					s.Y = append(s.Y, p.Prob)
				}
				res.Add(s)
			}
			res.Note("nabla-EVM per Eq. (2) over the 48-entry error-vector magnitude vectors")
			return res, nil
		},
	}
}

func fmtMs(ms float64) string {
	return strconv.FormatFloat(ms, 'g', -1, 64) + "ms"
}
