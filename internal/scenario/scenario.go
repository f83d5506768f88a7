// Package scenario is the pluggable world registry: named channel models,
// interferers, and control-bit embedding schemes, composed into Scenario
// values resolvable by name ("default", "pulse", "hybrid-bscpec",
// "ofdm-padding", ...). The link pipeline, the serve job executor, and the
// experiment engine all consume the three small interfaces below instead of
// hard-coding the paper's indoor world, so a new channel or embedding is one
// self-registering package — nothing in the core changes.
//
// Components self-register from init functions; import
// cos/internal/scenario/all (blank) to get every built-in registered.
package scenario

import (
	"fmt"
	"math/rand"

	"cos/internal/channel"
	icos "cos/internal/cos"
	"cos/internal/ofdm"
	"cos/internal/phy"
)

// Geometry describes the physical placement a channel realization is drawn
// for: the paper's receiver position, whether the receiver walks, and the
// realization variant (independent draw of the same geometry class).
type Geometry struct {
	Position channel.Position
	Mobile   bool
	Variant  int64
}

// ChannelModel propagates baseband samples through one channel realization.
// Implementations own every RNG draw they make from rng — for a fixed draw
// sequence the output is deterministic — and own their tap/scratch storage;
// the returned slice may alias dst and is valid until the next Propagate.
//
// snrDB is the target ground-truth SNR; the second result is the realized
// (channel-sounder) SNR in dB, which equals the target for flat channels.
type ChannelModel interface {
	Propagate(dst, samples []complex128, now, snrDB float64, rng *rand.Rand) ([]complex128, float64, error)
}

// FrequencyResponder is an optional ChannelModel capability: models with a
// well-defined per-subcarrier response (the indoor TDL, flat channels)
// expose it for the experiments that plot or threshold against |H|.
type FrequencyResponder interface {
	FrequencyResponse(now float64) [ofdm.NumSubcarriers]complex128
}

// Interferer injects interference into received samples in place, drawing
// all randomness from rng. It reports how many samples were hit.
// *channel.PulseInterferer satisfies this directly.
type Interferer interface {
	Apply(samples []complex128, rng *rand.Rand) (int, error)
}

// Embedding carries control bits through the PHY alongside a data packet.
// The paper's silence intervals are the "cos-silence" implementation; OFDM
// padding steganography is "ofdm-padding". One instance serves one node
// (transmitter or receiver) and owns its scratch, so steady-state calls do
// not allocate; returned slices alias that scratch and are valid until the
// next call of the same method.
type Embedding interface {
	// Budgeted reports whether the scheme spends the link's silence budget
	// and depends on detectable control subcarriers. Non-budgeted schemes
	// (padding) are capacity-limited only and never pause on NoDetectable
	// feedback.
	Budgeted() bool
	// Align returns the granularity unframed control messages must be a
	// multiple of, given k bits per interval (k for silences, 1 for padding).
	Align(k int) int
	// Capacity returns the maximum control bits one packet of psduLen bytes
	// at mode can carry over nCtrl control subcarriers with k bits per
	// interval (worst-case layout for interval codes).
	Capacity(mode phy.Mode, psduLen, nCtrl, k int) int
	// Embed writes the wire bits into pkt (mutating its grid or coded bits
	// before sample generation) and returns the ground-truth silence mask
	// (nil when the scheme inserts no silences) and the number of silence
	// symbols inserted.
	Embed(pkt *phy.TxPacket, ctrlSCs []int, wire []byte, k int) ([][]bool, int, error)
	// Mask runs receive-side silence detection with det over the front
	// end and returns the detected mask, or nil when the scheme marks no
	// erasures (the mask feeds erasure Viterbi decoding and EVM exclusion).
	Mask(fe *phy.FrontEnd, det icos.Detector, ctrlSCs []int) ([][]bool, error)
	// Extract recovers the wire bits from a decoded packet; mask is the
	// value Mask returned for this packet. The result may be longer than
	// the sent message (trailing noise or keystream bits), callers match
	// prefixes or validate framing.
	Extract(dec *phy.DecodeResult, mask [][]bool, ctrlSCs []int, k int) ([]byte, error)
}

// Default component names: the paper's indoor world.
const (
	// DefaultChannel is the channel model used when a Scenario names none.
	DefaultChannel = "indoor-tdl"
	// DefaultEmbedding is the embedding used when a Scenario names none.
	DefaultEmbedding = "cos-silence"
	// DefaultName is the registered name of the zero-value scenario.
	DefaultName = "default"
)

// Scenario composes a channel model, an optional interferer, a mobility
// flag, and an embedding scheme into one named world. The zero value is the
// default scenario (indoor TDL, no interferer, static, silence intervals).
// Component fields are registry names; empty Channel/Embedding select the
// defaults above, empty Interferer selects none.
type Scenario struct {
	// Name is the registered scenario name ("" for the zero value).
	Name string
	// Description is a one-line summary for listings.
	Description string

	// Channel names the ChannelModel; ChannelParams parameterize it.
	Channel       string
	ChannelParams []float64
	// Interferer names the Interferer ("" = none).
	Interferer       string
	InterfererParams []float64
	// Embedding names the Embedding scheme.
	Embedding       string
	EmbeddingParams []float64
	// Mobility forces the walking-speed channel regardless of link options.
	Mobility bool

	// ParamsFor names the component that user-supplied scenario parameters
	// configure: "channel", "interferer", "embedding", or "" when the
	// scenario takes no parameters.
	ParamsFor string
}

// NewChannel draws the scenario's channel realization for a geometry; the
// scenario's Mobility flag is ORed into the geometry.
func (s Scenario) NewChannel(g Geometry) (ChannelModel, error) {
	name := s.Channel
	if name == "" {
		name = DefaultChannel
	}
	f, err := channelFactory(name)
	if err != nil {
		return nil, err
	}
	g.Mobile = g.Mobile || s.Mobility
	return f(g, s.ChannelParams)
}

// NewInterferer builds the scenario's interferer, or (nil, nil) when the
// scenario has none.
func (s Scenario) NewInterferer() (Interferer, error) {
	if s.Interferer == "" {
		return nil, nil
	}
	f, err := interfererFactory(s.Interferer)
	if err != nil {
		return nil, err
	}
	return f(s.InterfererParams)
}

// NewEmbedding builds a fresh embedding instance (per pipeline node — an
// instance owns scratch and is not safe for concurrent use).
func (s Scenario) NewEmbedding() (Embedding, error) {
	name := s.Embedding
	if name == "" {
		name = DefaultEmbedding
	}
	f, err := embeddingFactory(name)
	if err != nil {
		return nil, err
	}
	return f(s.EmbeddingParams)
}

// Params returns the effective value of the parameter vector user-supplied
// params route into (the preset defaults unless Resolve overrode them), or
// nil for a parameterless scenario.
func (s Scenario) Params() []float64 {
	switch s.ParamsFor {
	case "channel":
		return s.ChannelParams
	case "interferer":
		return s.InterfererParams
	case "embedding":
		return s.EmbeddingParams
	}
	return nil
}

// Interfered composes a channel model with an interferer applied after
// propagation (matching the link pipeline's order: the ground-truth SNR is
// the pre-interference SNR). A FrequencyResponder model keeps exposing its
// response through the composition. A nil intf returns model unchanged.
func Interfered(model ChannelModel, intf Interferer) ChannelModel {
	if intf == nil {
		return model
	}
	if fr, ok := model.(FrequencyResponder); ok {
		return &interferedFR{interfered{model, intf}, fr}
	}
	return &interfered{model, intf}
}

type interfered struct {
	model ChannelModel
	intf  Interferer
}

func (c *interfered) Propagate(dst, samples []complex128, now, snrDB float64, rng *rand.Rand) ([]complex128, float64, error) {
	out, actual, err := c.model.Propagate(dst, samples, now, snrDB, rng)
	if err != nil {
		return nil, 0, err
	}
	if _, err := c.intf.Apply(out, rng); err != nil {
		return nil, 0, err
	}
	return out, actual, nil
}

type interferedFR struct {
	interfered
	fr FrequencyResponder
}

func (c *interferedFR) FrequencyResponse(now float64) [ofdm.NumSubcarriers]complex128 {
	return c.fr.FrequencyResponse(now)
}

// routeParams installs user-supplied params on the component ParamsFor
// names, returning an error for a parameterless scenario.
func (s Scenario) routeParams(params []float64) (Scenario, error) {
	if len(params) == 0 {
		return s, nil
	}
	switch s.ParamsFor {
	case "channel":
		s.ChannelParams = params
	case "interferer":
		s.InterfererParams = params
	case "embedding":
		s.EmbeddingParams = params
	default:
		return s, fmt.Errorf("scenario: %q takes no parameters (got %d)", s.Name, len(params))
	}
	return s, nil
}
