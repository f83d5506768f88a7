// Package indoor registers the paper's indoor world components: the
// "indoor-tdl" tapped-delay-line channel model (the measurement campaign's
// positions A/B/C plus the flat reference), the "pulse" interferer, and
// the "pulse" and "mobile" scenario presets. The default scenario routes
// through this package byte-for-byte.
package indoor

import (
	"fmt"
	"math/rand"

	"cos/internal/channel"
	"cos/internal/ofdm"
	"cos/internal/phy"
	"cos/internal/scenario"
)

// Model propagates samples through one indoor TDL realization: tap
// convolution plus AWGN scaled so the realized SNR hits the target. It
// owns its tap scratch; not safe for concurrent use.
type Model struct {
	tdl  *channel.TDL
	taps []complex128
}

// NewModel wraps an already-drawn TDL realization.
func NewModel(tdl *channel.TDL) *Model { return &Model{tdl: tdl} }

// Propagate implements scenario.ChannelModel. Taps are evaluated once and
// reused for the frequency response and the convolution; tap evaluation
// draws no randomness, so this matches separate FrequencyResponse/Apply
// calls bit for bit.
func (m *Model) Propagate(dst, samples []complex128, now, snrDB float64, rng *rand.Rand) ([]complex128, float64, error) {
	m.taps = m.tdl.TapsInto(m.taps, now)
	h := channel.FrequencyResponseFrom(m.taps)
	noiseVar, err := phy.NoiseVarForActualSNR(h, snrDB)
	if err != nil {
		return nil, 0, err
	}
	dst = channel.ApplyTo(dst, samples, m.taps, noiseVar, rng)
	actual, err := phy.ActualSNRdB(h, noiseVar)
	if err != nil {
		return nil, 0, err
	}
	return dst, actual, nil
}

// FrequencyResponse implements scenario.ChannelModel.
func (m *Model) FrequencyResponse(now float64) [ofdm.NumSubcarriers]complex128 {
	return m.tdl.FrequencyResponse(now)
}

// newPulse builds the paper's Fig. 10(d) pulse interferer from a
// [power, burstLen, startProb] parameter vector (empty = the figure's
// 40x-power, 160-sample, 0.4% setting).
func newPulse(params []float64) (scenario.Interferer, error) {
	p := &channel.PulseInterferer{Power: 40, BurstLen: 160, StartProb: 0.004}
	switch len(params) {
	case 0:
	case 3:
		p.Power = params[0]
		p.BurstLen = int(params[1])
		p.StartProb = params[2]
	default:
		return nil, fmt.Errorf("scenario: pulse interferer wants [power, burstLen, startProb] (got %d params)", len(params))
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

func init() {
	scenario.RegisterChannel(scenario.DefaultChannel, func(g scenario.Geometry, params []float64) (scenario.ChannelModel, error) {
		if len(params) != 0 {
			return nil, fmt.Errorf("scenario: indoor-tdl channel takes no parameters (got %d)", len(params))
		}
		tdl, err := g.Position.NewVariant(g.Mobile, g.Variant)
		if err != nil {
			return nil, err
		}
		return NewModel(tdl), nil
	})
	scenario.RegisterInterferer("pulse", newPulse)
	scenario.Register(scenario.Scenario{
		Name:             "pulse",
		Description:      "indoor TDL channel under pulse interference (Fig. 10(d)); params: power, burstLen, startProb",
		Channel:          scenario.DefaultChannel,
		Interferer:       "pulse",
		InterfererParams: []float64{40, 160, 0.004},
		Embedding:        scenario.DefaultEmbedding,
		ParamsFor:        "interferer",
	})
	scenario.Register(scenario.Scenario{
		Name:        "mobile",
		Description: "indoor TDL channel at walking-speed Doppler (the paper's mobile scenario)",
		Channel:     scenario.DefaultChannel,
		Embedding:   scenario.DefaultEmbedding,
		Mobility:    true,
	})
}
