package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"cos/internal/channel"
	"cos/internal/ofdm"
	"cos/internal/phy"
)

// The Fig. 6 operating point: fig6SNR is the true channel SNR in dB — low
// enough for the 16QAM mode to produce a visible error pattern on weak
// subcarriers while strong subcarriers stay nearly error-free;
// fig6Packets is the packet count before scaling; fig6Positions is the
// number of in-packet symbol positions reported in part (a), as in the
// paper.
const (
	fig6SNR       = 19
	fig6Packets   = 300
	fig6Positions = 1000
)

// fig6Packet is one packet's error pattern, the record of one point-task;
// assembly merges them serially as an order-independent integer
// accumulation.
type fig6Packet struct {
	ErrorPositions []int             `json:"error_positions"`
	SCErrors       [ofdm.NumData]int `json:"sc_errors"`
	SCCounts       [ofdm.NumData]int `json:"sc_counts"`
}

// fig6Tasks reproduces Fig. 6 at Position A (mobile): (a) the frequency of
// symbol errors at each in-packet symbol position — revealing the
// ~48-position periodicity induced by weak subcarriers — and (b) the
// symbol error rate of each data subcarrier. It has one point-task per
// packet: the mobile channel is a pure function of the transmit time
// t = p * 2 ms, so packet p needs no state from packet p-1.
func fig6Tasks(o RunOptions) TaskSet {
	packets := scaled(fig6Packets, o.Scale)
	return tasks[fig6Packet]{
		n: packets,
		run: func(ctx context.Context, p int, rng *rand.Rand) (fig6Packet, error) {
			mode, err := phy.ModeByRate(24)
			if err != nil {
				return fig6Packet{}, err
			}
			// Per task: a channel model owns tap scratch, so point-tasks
			// must not share one (variant 0 of the same geometry is the
			// same draw).
			ch, err := trialChannel(o.Scenario, channel.PositionA, true, 0)
			if err != nil {
				return fig6Packet{}, err
			}
			t := float64(p) * 2e-3 // back-to-back traffic at 2 ms spacing
			pr, err := probe(&trialScratch{}, ch, t, mode, 1024, fig6SNR, rng)
			if err != nil {
				return fig6Packet{}, err
			}
			diag, err := phy.Diagnose(pr.tx, pr.fe, nil, nil)
			if err != nil {
				return fig6Packet{}, err
			}
			return fig6Packet{
				ErrorPositions: diag.ErrorPositions(),
				SCErrors:       diag.SubcarrierErrorCounts,
				SCCounts:       diag.SymbolsPerSubcarrier,
			}, nil
		},
		assemble: func(perPacket []fig6Packet) (*Result, error) {
			posErrors := make([]int, fig6Positions)
			var scErrors, scCounts [ofdm.NumData]int
			for i, pkt := range perPacket {
				for _, pos := range pkt.ErrorPositions {
					if pos < 0 {
						return nil, fmt.Errorf("experiments: fig6 task %d record has error position %d", i, pos)
					}
					if pos < fig6Positions {
						posErrors[pos]++
					}
				}
				for d := 0; d < ofdm.NumData; d++ {
					scErrors[d] += pkt.SCErrors[d]
					scCounts[d] += pkt.SCCounts[d]
				}
			}

			res := &Result{
				ID:     "fig6",
				Title:  "Symbol error pattern within a packet (Position A, mobile)",
				XLabel: "symbol position / subcarrier index",
				YLabel: "error frequency / SER",
			}
			a := Series{Name: "ErrorFreqByPosition"}
			for i := 0; i < fig6Positions; i++ {
				a.X = append(a.X, float64(i+1))
				a.Y = append(a.Y, float64(posErrors[i])/float64(packets))
			}
			res.Add(a)
			b := Series{Name: "SERBySubcarrier"}
			for d := 0; d < ofdm.NumData; d++ {
				ser := 0.0
				if scCounts[d] > 0 {
					ser = float64(scErrors[d]) / float64(scCounts[d])
				}
				b.X = append(b.X, float64(d+1))
				b.Y = append(b.Y, ser)
			}
			res.Add(b)
			res.Note("position = ofdmSymbol*48 + subcarrier; the periodicity of part (a) equals the 48 data subcarriers")
			return res, nil
		},
	}
}
