package cos

import (
	"fmt"

	"cos/internal/channel"
	"cos/internal/obs"
	"cos/internal/scenario"
	_ "cos/internal/scenario/all" // register the built-in scenario components
)

// Position identifies a canonical indoor receiver placement; the three
// placements of the paper's measurement campaign differ in how much
// frequency-selective fading they exhibit.
type Position = channel.Position

// Canonical positions (re-exported from the channel simulator).
const (
	PositionA    = channel.PositionA
	PositionB    = channel.PositionB
	PositionC    = channel.PositionC
	PositionFlat = channel.PositionFlat
)

// The size bounds of the control subcarrier set the receiver selects
// (Sec. III-D). The paper's other fixed parameter, k control bits per
// inter-silence interval, is icos.DefaultBitsPerInterval.
const (
	minCtrlSCs = 4
	maxCtrlSCs = 8
)

// config collects Link settings; built by options.
type config struct {
	position         Position
	mobile           bool
	variant          int64
	scenario         scenario.Scenario
	seed             int64
	snrDB            float64
	fixedRateMbps    int
	silenceBudget    int
	adaptiveBudget   bool
	packetInterval   float64
	disableCoS       bool
	explicitFeedback bool
	controlFraming   bool
	observers        []Observer
	metrics          *obs.Registry
	probeEvery       int
}

func defaultConfig() config {
	return config{
		position:       PositionB,
		seed:           1,
		snrDB:          18,
		adaptiveBudget: true,
		packetInterval: 2e-3,
		metrics:        obs.Default(),
	}
}

// Option configures a Link.
type Option func(*config) error

// WithPosition selects the channel geometry (default PositionB).
func WithPosition(p Position) Option {
	return func(c *config) error {
		if _, err := p.Config(false); err != nil {
			return &ConfigError{Option: "WithPosition", Reason: err.Error(), Err: err}
		}
		c.position = p
		return nil
	}
}

// WithMobile enables walking-speed Doppler (the paper's mobile scenario).
func WithMobile() Option {
	return func(c *config) error {
		c.mobile = true
		return nil
	}
}

// WithChannelVariant selects an independent channel realization of the same
// position geometry; useful for averaging experiments.
func WithChannelVariant(v int64) Option {
	return func(c *config) error {
		c.variant = v
		return nil
	}
}

// WithSeed sets the noise/payload RNG seed (default 1). Two links built
// with identical options produce identical sample-level behaviour.
func WithSeed(seed int64) Option {
	return func(c *config) error {
		c.seed = seed
		return nil
	}
}

// WithSNR sets the true (channel-sounder) SNR in dB at which packets are
// received (default 18).
func WithSNR(db float64) Option {
	return func(c *config) error {
		if db < -10 || db > 60 {
			return &ConfigError{Option: "WithSNR", Reason: fmt.Sprintf("SNR %v dB out of the supported [-10,60] range", db)}
		}
		c.snrDB = db
		return nil
	}
}

// WithFixedRate pins the data rate in Mb/s instead of SNR-based adaptation.
func WithFixedRate(mbps int) Option {
	return func(c *config) error {
		c.fixedRateMbps = mbps
		return nil
	}
}

// WithSilenceBudget fixes the per-packet silence budget instead of adaptive
// control-rate selection.
func WithSilenceBudget(n int) Option {
	return func(c *config) error {
		if n < 0 {
			return &ConfigError{Option: "WithSilenceBudget", Reason: fmt.Sprintf("negative silence budget %d", n)}
		}
		c.silenceBudget = n
		c.adaptiveBudget = false
		return nil
	}
}

// WithScenario selects a registered world scenario by its reference,
// "name" or "name:p1,p2,..." — the channel model, interferer, mobility,
// and control-bit embedding scheme composed end-to-end ("default",
// "pulse", "mobile", "hybrid-bscpec", "ofdm-padding", ...; see
// internal/scenario and `cos-sim -list-scenarios`). Parameters configure
// the scenario's parameterized component (e.g.
// WithScenario("pulse:40,160,0.004") sets the interferer's power, burst
// length, and start probability). This is the spelling job specs, flags
// and configs carry. Geometry options (WithPosition, WithMobile,
// WithChannelVariant) still apply; a scenario with Mobility forces the
// mobile channel.
func WithScenario(ref string) Option {
	return func(c *config) error {
		sc, err := scenario.FromRef(ref)
		if err != nil {
			return &ConfigError{Option: "WithScenario", Reason: err.Error(), Err: err}
		}
		c.scenario = sc
		return nil
	}
}

// WithPacketInterval sets the simulated time between packet transmissions
// in seconds (default 2 ms); it drives channel evolution in mobile links.
func WithPacketInterval(seconds float64) Option {
	return func(c *config) error {
		if seconds <= 0 {
			return &ConfigError{Option: "WithPacketInterval", Reason: fmt.Sprintf("packet interval %v must be positive", seconds)}
		}
		c.packetInterval = seconds
		return nil
	}
}

// WithExplicitFeedback transports the receiver's feedback over the reverse
// channel as the paper describes (Sec. III-A/D): an ACK-sized frame at the
// base rate carrying the measured SNR, plus one OFDM symbol whose silences
// encode the selected-subcarrier vector V. Without this option feedback is
// delivered ideally (the default, matching the paper's assumption that ACKs
// are reliable). Feedback frames share the forward channel by reciprocity.
func WithExplicitFeedback() Option {
	return func(c *config) error {
		c.explicitFeedback = true
		return nil
	}
}

// WithControlFraming wraps every control message in an 8-bit length header
// and an 8-bit CRC before interval encoding. The receiver then validates
// messages without knowing their content in advance — the integrity layer a
// deployable CoS needs, since one detection error shifts every later
// interval. Costs 16 bits of control budget per message.
func WithControlFraming() Option {
	return func(c *config) error {
		c.controlFraming = true
		return nil
	}
}

// WithObserver registers an observer on the link's exchange stream; every
// completed Send (and every packet SendStream pushes) is delivered to
// each observer in registration order. Trace capture
// (trace.Writer.Observer), metrics sinks, and experiment bookkeeping all
// ride this one hook.
func WithObserver(o Observer) Option {
	return func(c *config) error {
		if o == nil {
			return &ConfigError{Option: "WithObserver", Reason: "nil observer"}
		}
		c.observers = append(c.observers, o)
		return nil
	}
}

// WithProbe samples a deep PHY introspection Probe every nth exchange
// (every=1 probes every packet): per-subcarrier EVM, the symbol-error
// waterfall, erasure positions, and detector energy margins — the state
// behind the paper's Figs. 5-7, captured live instead of re-simulated.
//
// Probes re-demodulate the whole packet against the transmitted grid, so
// they are far more expensive than the exchange itself; sampling keeps
// them off the hot path (the BENCH_trace.json overhead budget assumes
// every >= 64 for long sessions). Without this option no probe work runs
// at all. The probe is attached to Exchange.Probe, where observers (e.g.
// trace capture into schema v2) pick it up.
func WithProbe(every int) Option {
	return func(c *config) error {
		if every < 1 {
			return &ConfigError{Option: "WithProbe", Reason: fmt.Sprintf("sampling interval %d must be >= 1", every)}
		}
		c.probeEvery = every
		return nil
	}
}

// WithMetricsRegistry redirects the link's metrics to r instead of the
// process-wide default registry — an isolated registry lets tests assert
// exact counts without cross-talk from other links.
func WithMetricsRegistry(r *MetricsRegistry) Option {
	return func(c *config) error {
		if r == nil {
			return &ConfigError{Option: "WithMetricsRegistry", Reason: "nil metrics registry"}
		}
		c.metrics = r
		return nil
	}
}

// WithoutCoS disables silence insertion entirely: the link behaves as plain
// 802.11a. Used as the experimental control.
func WithoutCoS() Option {
	return func(c *config) error {
		c.disableCoS = true
		return nil
	}
}
