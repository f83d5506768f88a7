package cos

import (
	"strconv"
	"time"

	icos "cos/internal/cos"
	"cos/internal/obs"
	"cos/internal/phy"
)

// Link is a simulated CoS sender/receiver pair over an indoor channel. It
// carries the closed loop of the paper's Fig. 8: the receiver measures
// per-subcarrier EVM from each correctly decoded packet and feeds the
// selected control subcarriers (and its measured SNR) back to the sender,
// which adapts both the data rate and the control-message rate.
//
// A Link is thin wiring over three internal pipeline nodes — transmitter,
// channel, and receiver — each of which owns its own scratch arena, so
// steady-state Sends allocate only the Exchange handed to the caller.
//
// Create a Link with NewLink and push packets through it with Send (or
// SendStream); that is the one way into the pipeline. A Link is not safe
// for concurrent use.
type Link struct {
	cfg     config
	tx      *transmitter
	ch      *channelNode
	rx      *receiver
	now     float64
	seq     int
	metrics linkMetrics
}

// Observer receives every completed exchange, immediately after the link
// finishes processing it and before Send returns. Observers are the
// link's event stream: trace capture, metrics sinks, and experiment
// bookkeeping all consume the same hook (see WithObserver). Every
// observer receives the same *Exchange that Send returns, so an observer
// that mutates it changes what later observers and the caller see.
type Observer func(*Exchange)

// Exchange reports everything observable about one packet exchange. Send
// allocates every slice of an Exchange (and its Probe) fresh, so the
// caller owns it: retaining or mutating it never reaches link state.
type Exchange struct {
	// Seq is the 0-based index of this exchange on its link.
	Seq int
	// DataBytes is the sender's data payload length.
	DataBytes int
	// Mode is the 802.11a mode the sender selected.
	Mode phy.Mode
	// DataOK reports whether the data payload passed its frame check.
	DataOK bool
	// Data is the decoded payload (nil when DataOK is false).
	Data []byte
	// ControlSent is the control bit string actually embedded (empty when
	// the budget allowed none or CoS is disabled).
	ControlSent []byte
	// ControlReceived is the control bit string the receiver extracted; it
	// may be longer than ControlSent if trailing noise decoded as extra
	// intervals, or nil if extraction failed outright.
	ControlReceived []byte
	// ControlOK reports whether ControlReceived starts with ControlSent.
	ControlOK bool
	// ControlVerified reports whether the receiver validated the control
	// message through its framing CRC — the receiver-side truth available
	// without knowing the sent bits. Always false unless the link was built
	// with WithControlFraming.
	ControlVerified bool
	// ControlPayload is the CRC-validated payload when ControlVerified.
	ControlPayload []byte
	// SilencesInserted is the number of silence symbols the sender used.
	SilencesInserted int
	// ControlSubcarriers is the subcarrier set used for this packet.
	ControlSubcarriers []int
	// Detection is the energy detector's accuracy against ground truth.
	Detection icos.DetectionStats
	// MeasuredSNRdB is the receiver NIC's SNR estimate for this packet.
	MeasuredSNRdB float64
	// ActualSNRdB is the channel-sounder (ground truth) SNR.
	ActualSNRdB float64
	// Time is the simulation time at which the packet was sent.
	Time float64
	// StageNS is the wall-clock nanoseconds this exchange spent in each
	// pipeline stage, indexed by Stage (zero for stages that did not run,
	// e.g. detection on a data-only packet). The same timers feed the
	// cos_link_stage_*_seconds histograms.
	StageNS [StageCount]int64
	// Probe carries the deep PHY introspection sample for this exchange
	// when the link was built with WithProbe and this exchange was sampled;
	// nil otherwise.
	Probe *Probe
}

// linkMetrics holds the link's metric handles, resolved once at
// construction so the per-packet cost is a handful of atomic updates.
// Links sharing a registry (the default) share the counters.
type linkMetrics struct {
	exchanges      *obs.Counter
	dataOK         *obs.Counter
	dataLost       *obs.Counter
	ctrlSent       *obs.Counter
	ctrlOK         *obs.Counter
	ctrlVerified   *obs.Counter
	ctrlBitsSent   *obs.Counter
	silences       *obs.Counter
	feedbackLosses *obs.Counter
	exchangeTime   *obs.Histogram
	ratePackets    *obs.CounterFamily
	probes         *obs.Counter

	// stageHists and stageNS are the stage clock (see stage.go): the
	// per-stage latency histograms, shared by links on one registry, and
	// this link's per-exchange totals, drained into Exchange.StageNS. The
	// three nodes of one link share them, so one drain covers the whole
	// pipeline.
	stageHists [StageCount]*obs.Histogram
	stageNS    [StageCount]int64

	// SendStream counters (see stream.go).
	streams            *obs.Counter
	streamsDelivered   *obs.Counter
	streamStallAborts  *obs.Counter
	streamFragAborts   *obs.Counter
	streamStalledPkts  *obs.Counter
	fragmentsSent      *obs.Counter
	fragmentsDelivered *obs.Counter
}

func newLinkMetrics(r *obs.Registry) linkMetrics {
	return linkMetrics{
		exchanges: r.Counter("cos_link_exchanges_total",
			"Packet exchanges completed by Link.Send."),
		dataOK: r.Counter("cos_link_data_ok_total",
			"Exchanges whose data payload passed its frame check."),
		dataLost: r.Counter("cos_link_data_lost_total",
			"Exchanges whose data payload failed its frame check."),
		ctrlSent: r.Counter("cos_link_control_sent_total",
			"Exchanges that carried embedded control bits."),
		ctrlOK: r.Counter("cos_link_control_ok_total",
			"Control messages delivered (genie comparison)."),
		ctrlVerified: r.Counter("cos_link_control_verified_total",
			"Control messages validated by the framing CRC."),
		ctrlBitsSent: r.Counter("cos_link_control_bits_total",
			"Control bits embedded across all exchanges."),
		silences: r.Counter("cos_link_silences_total",
			"Silence symbols inserted across all exchanges."),
		feedbackLosses: r.Counter("cos_link_feedback_losses_total",
			"Exchanges after which the sender had no usable feedback (data or feedback-frame loss)."),
		exchangeTime: r.Histogram("cos_link_exchange_seconds",
			"Wall-clock latency of one full Link.Send exchange.", nil),
		ratePackets: r.CounterFamily("cos_link_rate_packets_total",
			"Packets sent per 802.11a data rate.", "rate_mbps"),
		probes: r.Counter("cos_link_probes_total",
			"Deep PHY introspection probes captured (WithProbe sampling)."),
		stageHists: newStageHistograms(r),
		streams: r.Counter("cos_stream_sends_total",
			"SendStream transfers started."),
		streamsDelivered: r.Counter("cos_stream_delivered_total",
			"SendStream transfers fully reassembled at the receiver."),
		streamStallAborts: r.Counter("cos_stream_stall_aborts_total",
			"SendStream transfers abandoned after consecutive budget-starved packets."),
		streamFragAborts: r.Counter("cos_stream_fragment_aborts_total",
			"SendStream transfers aborted by a lost or corrupted fragment."),
		streamStalledPkts: r.Counter("cos_stream_stalled_packets_total",
			"Data-only packets pushed while a stream waited out a budget dip."),
		fragmentsSent: r.Counter("cos_stream_fragments_sent_total",
			"Stream fragments embedded into packets."),
		fragmentsDelivered: r.Counter("cos_stream_fragments_delivered_total",
			"Stream fragments CRC-verified at the receiver."),
	}
}

// NewLink builds a link from options. The zero-option link is PositionB,
// static, 18 dB SNR, adaptive everything.
func NewLink(opts ...Option) (*Link, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		if err := o(&cfg); err != nil {
			return nil, err
		}
	}
	if cfg.fixedRateMbps != 0 {
		if _, err := phy.ModeByRate(cfg.fixedRateMbps); err != nil {
			return nil, err
		}
	}
	var err error
	l := &Link{cfg: cfg, metrics: newLinkMetrics(cfg.metrics)}
	if l.ch, err = newChannelNode(cfg, &l.metrics); err != nil {
		return nil, err
	}
	if l.tx, err = newTransmitter(cfg, &l.metrics); err != nil {
		return nil, err
	}
	if l.rx, err = newReceiver(cfg, l.ch, &l.metrics); err != nil {
		return nil, err
	}
	return l, nil
}

// Now returns the link's simulation clock in seconds.
func (l *Link) Now() float64 { return l.now }

// clampToBand bounds a measured SNR into the adaptation band of the given
// rate: [its threshold, just below the next mode's threshold].
func clampToBand(snr float64, rateMbps int) float64 {
	modes := phy.Modes()
	for i, m := range modes {
		if m.RateMbps != rateMbps {
			continue
		}
		lo := m.MinSNRdB
		hi := snr
		if i+1 < len(modes) {
			hi = modes[i+1].MinSNRdB - 0.1
		}
		if snr < lo {
			return lo
		}
		if snr > hi {
			return hi
		}
		return snr
	}
	return snr
}

// MaxControlBits reports how many control bits the next Send can embed for
// a payload of dataLen bytes, accounting for the current budget, the
// control subcarrier set, and worst-case interval layout.
func (l *Link) MaxControlBits(dataLen int) (int, error) {
	return l.tx.MaxControlBits(dataLen)
}

// defaultCtrlSCs is the bootstrap control set used before any feedback
// exists: the contiguous mid-band subcarriers of the paper's Fig. 10(a).
var defaultCtrlSCs = []int{9, 10, 11, 12, 13, 14, 15, 16}

// Send transmits one data payload with the given control bits embedded and
// returns the receive-side outcome. len(control) must be a multiple of the
// configured bits-per-interval and fit within MaxControlBits; pass nil to
// send a data-only packet.
func (l *Link) Send(data, control []byte) (*Exchange, error) {
	start := time.Now()

	// Sender node.
	f, err := l.tx.Encode(data, control)
	if err != nil {
		return nil, err
	}
	// ControlSubcarriers is copied: the frame's set aliases the
	// transmitter's selection, or the shared bootstrap set on a fresh link.
	ex := &Exchange{
		Seq:                l.seq,
		DataBytes:          len(data),
		Mode:               f.Mode,
		Time:               l.now,
		ControlSubcarriers: append([]int(nil), f.ControlSubcarriers...),
	}
	if len(control) > 0 {
		ex.ControlSent = append([]byte(nil), control...)
		ex.SilencesInserted = f.SilencesInserted
	}

	// Channel node.
	rxSamples, actualSNR, err := l.ch.Transmit(f.Samples, l.now)
	if err != nil {
		return nil, err
	}
	ex.ActualSNRdB = actualSNR

	// Receiver node.
	res, err := l.rx.Receive(f, rxSamples, l.now)
	if err != nil {
		return nil, err
	}
	ex.MeasuredSNRdB = res.MeasuredSNRdB
	if res.ControlDecoded {
		// Copy out of the receiver's scratch; keep non-nil even when empty
		// (extraction succeeded, just with no intervals).
		ex.ControlReceived = append(make([]byte, 0, len(res.ControlReceived)), res.ControlReceived...)
	}
	ex.ControlOK = res.ControlOK
	ex.ControlVerified = res.ControlVerified
	ex.ControlPayload = res.ControlPayload
	ex.Detection = res.Detection
	if res.DataOK {
		ex.DataOK = true
		ex.Data = append(make([]byte, 0, len(res.Data)), res.Data...)
	}

	// Close the loop: deliver the receiver's feedback to the transmitter,
	// or note the loss (data or feedback-frame) so the sender falls back to
	// conservative settings (Sec. III-F).
	if res.FeedbackOK {
		l.tx.ApplyFeedback(res.Feedback)
	} else {
		l.tx.NoteLoss()
		l.metrics.feedbackLosses.Inc()
	}

	// Flight recorder epilogue, off the per-packet hot path: the sampled
	// introspection probe (never when WithProbe is absent), then the
	// per-stage latency drain into the exchange.
	if l.cfg.probeEvery > 0 && ex.Seq%l.cfg.probeEvery == 0 {
		probe, err := buildProbe(ex, f.Packet, res.fe, res.mask, res.hard, res.det, f.ControlSubcarriers)
		if err != nil {
			return nil, err
		}
		ex.Probe = probe
		l.metrics.probes.Inc()
	}
	l.metrics.drainStages(&ex.StageNS)

	l.seq++
	l.observe(ex, start)
	l.now += l.cfg.packetInterval
	return ex, nil
}

// observe updates the link's per-exchange metrics and fans the exchange
// out to registered observers.
func (l *Link) observe(ex *Exchange, start time.Time) {
	m := &l.metrics
	m.exchanges.Inc()
	if ex.DataOK {
		m.dataOK.Inc()
	} else {
		m.dataLost.Inc()
	}
	if len(ex.ControlSent) > 0 {
		m.ctrlSent.Inc()
		m.ctrlBitsSent.Add(uint64(len(ex.ControlSent)))
		if ex.ControlOK {
			m.ctrlOK.Inc()
		}
		if ex.ControlVerified {
			m.ctrlVerified.Inc()
		}
	}
	m.silences.Add(uint64(ex.SilencesInserted))
	m.ratePackets.With(strconv.Itoa(ex.Mode.RateMbps)).Inc()
	m.exchangeTime.ObserveSince(start)
	for _, o := range l.cfg.observers {
		o(ex)
	}
}

// clampFeedbackSNR bounds an SNR report to the feedback frame's encodable
// range.
func clampFeedbackSNR(db float64) float64 {
	const lo, hi = -10, 53.75
	if db < lo {
		return lo
	}
	if db > hi {
		return hi
	}
	return db
}

// LastEVM returns the receiver's most recent per-subcarrier EVM picture
// (48 fractions), or nil before the first successful packet.
func (l *Link) LastEVM() []float64 { return l.rx.LastEVM() }

// ControlSubcarriers returns the currently selected control subcarriers.
func (l *Link) ControlSubcarriers() []int { return l.tx.ControlSubcarriers() }
