// Package outdoor registers the "hybrid-bscpec" channel model after Chen &
// Leith's outdoor WLAN measurements: a hybrid of a packet-erasure channel
// (whole frames lost with probability q — deep fades, collisions) and a
// binary-symmetric channel (individual symbols corrupted with probability
// p — the regime where corrupted frames still carry information). On top
// of flat AWGN at the target SNR, each packet either has its entire
// payload blasted with strong noise (erasure: the FCS cannot pass) or has
// each OFDM symbol independently corrupted, which flips coded bits at a
// near-1/2 rate within the symbol (the BSC marginal).
package outdoor

import (
	"fmt"
	"math"
	"math/rand"

	"cos/internal/channel"
	"cos/internal/ofdm"
	"cos/internal/phy"
	"cos/internal/scenario"
)

// Name is the registered channel-model name.
const Name = "hybrid-bscpec"

// Default hybrid parameters: [q, p, power].
const (
	defaultEraseProb   = 0.1  // q: packet-erasure probability
	defaultCorruptProb = 0.05 // p: per-OFDM-symbol corruption probability
	defaultBurstPower  = 25   // corruption noise power, x the AWGN floor
)

// Model is the hybrid BSC/PEC channel. The propagation itself is flat
// (single unit tap), so the realized SNR always equals the target; the
// erasure and corruption draws ride the same RNG stream after the AWGN
// draws, keeping the whole packet deterministic per seed.
type Model struct {
	eraseProb   float64
	corruptProb float64
	burstPower  float64
	taps        []complex128
}

// New builds a hybrid model from a [q, p, power] parameter vector
// (empty = defaults).
func New(params []float64) (*Model, error) {
	m := &Model{
		eraseProb:   defaultEraseProb,
		corruptProb: defaultCorruptProb,
		burstPower:  defaultBurstPower,
		taps:        []complex128{1},
	}
	switch len(params) {
	case 0:
	case 3:
		m.eraseProb, m.corruptProb, m.burstPower = params[0], params[1], params[2]
	default:
		return nil, fmt.Errorf("scenario: hybrid-bscpec channel wants [eraseProb, corruptProb, burstPower] (got %d params)", len(params))
	}
	if m.eraseProb < 0 || m.eraseProb > 1 {
		return nil, fmt.Errorf("scenario: hybrid-bscpec eraseProb %v outside [0,1]", m.eraseProb)
	}
	if m.corruptProb < 0 || m.corruptProb > 1 {
		return nil, fmt.Errorf("scenario: hybrid-bscpec corruptProb %v outside [0,1]", m.corruptProb)
	}
	if m.burstPower <= 0 {
		return nil, fmt.Errorf("scenario: hybrid-bscpec burstPower %v must be positive", m.burstPower)
	}
	return m, nil
}

// Propagate implements scenario.ChannelModel: flat AWGN at the target SNR,
// then one erasure draw per packet and one corruption draw per payload
// OFDM symbol.
func (m *Model) Propagate(dst, samples []complex128, now, snrDB float64, rng *rand.Rand) ([]complex128, float64, error) {
	h := channel.FrequencyResponseFrom(m.taps)
	noiseVar, err := phy.NoiseVarForActualSNR(h, snrDB)
	if err != nil {
		return nil, 0, err
	}
	dst = channel.ApplyTo(dst, samples, m.taps, noiseVar, rng)
	// Corruption noise amplitude per I/Q component, mirroring AddAWGN's
	// convention (noiseVar split evenly across the two components).
	amp := math.Sqrt(m.burstPower * noiseVar / 2)
	payload := dst
	if len(payload) > ofdm.PreambleLen {
		// Leave the preamble intact: erasure means the frame check fails,
		// not that the front end loses sync entirely.
		payload = payload[ofdm.PreambleLen:]
	}
	if rng.Float64() < m.eraseProb {
		corrupt(payload, amp, rng)
	} else if m.corruptProb > 0 {
		for off := 0; off < len(payload); off += ofdm.SymbolLen {
			end := off + ofdm.SymbolLen
			if end > len(payload) {
				end = len(payload)
			}
			if rng.Float64() < m.corruptProb {
				corrupt(payload[off:end], amp, rng)
			}
		}
	}
	actual, err := phy.ActualSNRdB(h, noiseVar)
	if err != nil {
		return nil, 0, err
	}
	return dst, actual, nil
}

// FrequencyResponse implements scenario.ChannelModel: the hybrid
// channel is flat.
func (m *Model) FrequencyResponse(float64) [ofdm.NumSubcarriers]complex128 {
	return channel.FrequencyResponseFrom(m.taps)
}

func corrupt(samples []complex128, amp float64, rng *rand.Rand) {
	for i := range samples {
		samples[i] += complex(amp*rng.NormFloat64(), amp*rng.NormFloat64())
	}
}

func init() {
	scenario.RegisterChannel(Name, func(g scenario.Geometry, params []float64) (scenario.ChannelModel, error) {
		return New(params)
	})
	scenario.Register(scenario.Scenario{
		Name:          Name,
		Description:   "Chen & Leith outdoor hybrid BSC/packet-erasure channel; params: eraseProb, corruptProb, burstPower",
		Channel:       Name,
		ChannelParams: []float64{defaultEraseProb, defaultCorruptProb, defaultBurstPower},
		Embedding:     scenario.DefaultEmbedding,
		ParamsFor:     "channel",
	})
}
