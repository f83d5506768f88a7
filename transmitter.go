package cos

import (
	"fmt"

	"cos/internal/bits"
	icos "cos/internal/cos"
	"cos/internal/phy"
	"cos/internal/scenario"
)

// txFrame is one encoded transmission: the output of transmitter.Encode and
// the input to channelNode.Transmit / receiver.Receive. Its slice fields alias
// the transmitter's scratch storage, so a frame is valid only until the
// next Encode on the same transmitter.
type txFrame struct {
	// Mode is the 802.11a mode the transmitter selected.
	Mode phy.Mode
	// DataBytes is the data payload length in bytes.
	DataBytes int
	// PSDULen is the PSDU length (data + FCS) in bytes.
	PSDULen int
	// Samples are the baseband time-domain samples to push through the
	// channel: preamble plus cyclic-prefixed OFDM payload symbols.
	Samples []complex128
	// Packet is the underlying transmit packet (grid already carries the
	// embedded silences).
	Packet *phy.TxPacket
	// ControlSubcarriers is the control subcarrier set used for this frame.
	ControlSubcarriers []int
	// ControlBits are the control bits the caller asked to embed (before
	// framing/padding); empty for a data-only frame.
	ControlBits []byte
	// TruthMask is the ground-truth silence mask the transmitter embedded,
	// or nil for a data-only frame.
	TruthMask [][]bool
	// SilencesInserted is the number of silence symbols embedded.
	SilencesInserted int
}

// linkFeedback is what the receiver feeds back to the transmitter after a
// successful exchange: the smoothed SNR report and the selected control
// subcarriers (Fig. 8's closed loop).
type linkFeedback struct {
	// MeasuredSNRdB is the receiver's (smoothed) SNR report.
	MeasuredSNRdB float64
	// ControlSubcarriers is the selected control set; empty when no
	// subcarrier was detectable.
	ControlSubcarriers []int
	// NoDetectable reports that the receiver found no subcarrier on which
	// silences could be detected; the transmitter pauses CoS.
	NoDetectable bool
}

// transmitter is the sender-side pipeline node: it selects the data mode
// and silence budget from the last feedback, runs the 802.11a transmit
// chain, embeds control bits through the scenario's embedding scheme
// (silence intervals by default), and renders baseband samples. It owns a
// reusable scratch arena, so steady-state Encode calls do not allocate;
// the returned frame aliases that arena and is valid until the next
// Encode. A transmitter is not safe for concurrent use.
type transmitter struct {
	cfg     config
	emb     scenario.Embedding
	rateTbl *icos.RateTable
	metrics *linkMetrics

	// Feedback state (valid after the first ApplyFeedback).
	haveFeedback bool
	// noDetectable records that the last feedback found no subcarrier on
	// which silences could be detected: CoS pauses (budget 0) rather than
	// falling back to the bootstrap set on a channel known to be hostile.
	noDetectable bool
	ctrlSCs      []int
	measuredSNR  float64

	// Scratch, reused across Encodes (the embedding owns the
	// interval/mask scratch).
	phy     phy.TxScratch
	psdu    []byte
	framed  []byte
	padded  []byte
	samples []complex128
	frame   txFrame
}

func newTransmitter(cfg config, m *linkMetrics) (*transmitter, error) {
	emb, err := cfg.scenario.NewEmbedding()
	if err != nil {
		return nil, err
	}
	return &transmitter{cfg: cfg, emb: emb, rateTbl: icos.DefaultRateTable(), metrics: m}, nil
}

// Mode returns the data mode the next Encode will use.
func (t *transmitter) Mode() (phy.Mode, error) {
	if t.cfg.fixedRateMbps != 0 {
		return phy.ModeByRate(t.cfg.fixedRateMbps)
	}
	if !t.haveFeedback {
		// No feedback yet: most robust mode.
		return phy.ModeByRate(6)
	}
	return phy.SelectMode(t.measuredSNR), nil
}

// SilenceBudget returns the per-packet silence budget for the next frame.
func (t *transmitter) SilenceBudget() int {
	if !t.cfg.adaptiveBudget {
		return t.cfg.silenceBudget
	}
	if !t.haveFeedback {
		// Sec. III-F: without feedback (e.g. after a loss) use the lowest
		// control rate.
		return t.rateTbl.Fallback()
	}
	snr := t.measuredSNR
	if t.cfg.fixedRateMbps != 0 {
		// The budget table is calibrated against the adaptive SNR->mode
		// mapping. With a pinned rate, clamp the lookup into that mode's
		// band: above the band the pinned mode has *more* headroom than the
		// adaptive mode the table assumes, so the band-top budget is a
		// conservative choice.
		snr = clampToBand(snr, t.cfg.fixedRateMbps)
	}
	return t.rateTbl.Lookup(snr)
}

// MaxControlBits reports how many control bits the next Encode can embed
// for a payload of dataLen bytes, accounting for the current budget, the
// control subcarrier set, and the embedding scheme's capacity (worst-case
// interval layout for silences, pad size for padding).
func (t *transmitter) MaxControlBits(dataLen int) (int, error) {
	if t.cfg.disableCoS || (t.emb.Budgeted() && t.noDetectable) {
		return 0, nil
	}
	mode, err := t.Mode()
	if err != nil {
		return 0, err
	}
	k := icos.DefaultBitsPerInterval
	nCtrl := len(t.ctrlSCs)
	if nCtrl == 0 {
		nCtrl = minCtrlSCs
	}
	byCapacity := t.emb.Capacity(mode, dataLen+bits.FCSLen, nCtrl, k)
	if !t.emb.Budgeted() {
		// Capacity-limited only: no silence budget applies, but framing
		// overhead still eats into the pad.
		if t.cfg.controlFraming {
			byCapacity -= icos.FramedBits(0, t.emb.Align(k))
		}
		if byCapacity < 0 {
			byCapacity = 0
		}
		return byCapacity, nil
	}
	budget := t.SilenceBudget()
	byBudget := (budget - 1) * k
	if byBudget < 0 {
		byBudget = 0
	}
	if t.cfg.controlFraming {
		byBudget -= icos.FramedBits(0, k) // header+CRC ride in the budget
		if byBudget < 0 {
			byBudget = 0
		}
	}
	if byCapacity < byBudget {
		return byCapacity, nil
	}
	return byBudget, nil
}

// ControlSubcarriers returns the control subcarrier set the next Encode
// will use (a copy).
func (t *transmitter) ControlSubcarriers() []int {
	src := t.ctrlSCs
	if len(src) == 0 {
		src = defaultCtrlSCs
	}
	out := make([]int, len(src))
	copy(out, src)
	return out
}

// Encode builds one frame: FCS, the 802.11a transmit chain, control-bit
// embedding as silences, and sample generation. len(control) must be a
// multiple of the configured bits-per-interval and fit within
// MaxControlBits; pass nil for a data-only frame. The returned frame
// aliases the transmitter's scratch and is valid until the next Encode.
func (t *transmitter) Encode(data, control []byte) (*txFrame, error) {
	mode, err := t.Mode()
	if err != nil {
		return nil, err
	}
	if t.cfg.disableCoS && len(control) > 0 {
		return nil, fmt.Errorf("cos: control bits on a CoS-disabled link: %w", ErrCoSDisabled)
	}

	sp := t.metrics.span(StageTxEncode)
	t.psdu = bits.AppendFCSInto(t.psdu, data)
	pkt, err := phy.BuildPacketInto(&t.phy, phy.TxConfig{Mode: mode}, t.psdu)
	if err != nil {
		return nil, err
	}
	ctrlSCs := t.ctrlSCs
	if len(ctrlSCs) == 0 {
		ctrlSCs = defaultCtrlSCs
	}
	f := &t.frame
	*f = txFrame{
		Mode:               mode,
		DataBytes:          len(data),
		PSDULen:            len(t.psdu),
		Packet:             pkt,
		ControlSubcarriers: ctrlSCs,
		ControlBits:        control,
	}

	if len(control) > 0 {
		maxBits, err := t.MaxControlBits(len(data))
		if err != nil {
			return nil, err
		}
		if len(control) > maxBits {
			return nil, fmt.Errorf("cos: %d control bits exceed the current budget of %d: %w", len(control), maxBits, ErrBudgetExceeded)
		}
		wire := control
		align := t.emb.Align(icos.DefaultBitsPerInterval)
		if t.cfg.controlFraming {
			t.framed, err = icos.FrameControlInto(t.framed, control)
			if err != nil {
				return nil, err
			}
			t.padded, err = icos.PadToIntervalInto(t.padded, t.framed, align)
			if err != nil {
				return nil, err
			}
			wire = t.padded
		} else if align > 1 && len(control)%align != 0 {
			return nil, fmt.Errorf("cos: %d control bits is not a multiple of k=%d (or use WithControlFraming): %w",
				len(control), align, ErrControlAlignment)
		}
		f.TruthMask, f.SilencesInserted, err = t.emb.Embed(pkt, ctrlSCs, wire, icos.DefaultBitsPerInterval)
		if err != nil {
			return nil, err
		}
	}

	t.samples, err = pkt.SamplesInto(t.samples)
	if err != nil {
		return nil, err
	}
	f.Samples = t.samples
	sp.End()
	return f, nil
}

// ApplyFeedback installs the receiver's feedback; it governs the mode,
// budget, and control set of subsequent Encodes.
func (t *transmitter) ApplyFeedback(fb linkFeedback) {
	t.haveFeedback = true
	t.measuredSNR = fb.MeasuredSNRdB
	t.ctrlSCs = fb.ControlSubcarriers
	t.noDetectable = fb.NoDetectable
}

// NoteLoss records that the last exchange produced no usable feedback
// (data or feedback-frame loss): the transmitter falls back to
// conservative settings for the next frame (Sec. III-F).
func (t *transmitter) NoteLoss() {
	t.haveFeedback = false
	t.noDetectable = false
	t.ctrlSCs = nil
}
