package cos

import (
	"math/rand"

	"cos/internal/scenario"
)

// channelNode is the propagation node between a transmitter and a receiver: the
// configured scenario's channel model (the indoor tapped-delay line by
// default) plus AWGN at the configured SNR and the scenario's interferer.
// It owns the link's noise RNG, so forward (Transmit) and reverse (Reverse,
// for explicit feedback) traffic draw from one stream exactly as a
// reciprocal channel should. Received sample buffers are scratch, valid
// until the next call of the same method. A channelNode is not safe for
// concurrent use.
type channelNode struct {
	cfg config
	// forward is the scenario's channel model composed with its
	// interferer; reverse is the bare model, since feedback frames skip the
	// interferer.
	forward scenario.ChannelModel
	reverse scenario.ChannelModel
	rng     *rand.Rand
	metrics *linkMetrics

	fwd []complex128
	rev []complex128
}

func newChannelNode(cfg config, m *linkMetrics) (*channelNode, error) {
	model, err := cfg.scenario.NewChannel(scenario.Geometry{
		Position: cfg.position,
		Mobile:   cfg.mobile,
		Variant:  cfg.variant,
	})
	if err != nil {
		return nil, err
	}
	intf, err := cfg.scenario.NewInterferer()
	if err != nil {
		return nil, err
	}
	return &channelNode{
		cfg:     cfg,
		forward: scenario.Interfered(model, intf),
		reverse: model,
		rng:     rand.New(rand.NewSource(cfg.seed)),
		metrics: m,
	}, nil
}

// Transmit propagates a frame's samples through the channel at simulation
// time now: the scenario's channel model (convolution plus AWGN scaled to
// the configured SNR) and its interferer if one is configured. It returns
// the received samples (scratch, valid until the next Transmit) and the
// channel-sounder (ground truth) SNR in dB.
func (c *channelNode) Transmit(samples []complex128, now float64) ([]complex128, float64, error) {
	sp := c.metrics.span(StageChannel)
	var actual float64
	var err error
	c.fwd, actual, err = c.forward.Propagate(c.fwd, samples, now, c.cfg.snrDB, c.rng)
	if err != nil {
		return nil, 0, err
	}
	sp.End()
	return c.fwd, actual, nil
}

// Reverse carries an explicit-feedback frame back over the same channel
// (reciprocity). The interferer does not apply — feedback frames are
// ACK-sized and ride the reverse direction. The returned samples are
// scratch, valid until the next Reverse.
func (c *channelNode) Reverse(frame []complex128, now float64) ([]complex128, error) {
	var err error
	c.rev, _, err = c.reverse.Propagate(c.rev, frame, now, c.cfg.snrDB, c.rng)
	if err != nil {
		return nil, err
	}
	return c.rev, nil
}
