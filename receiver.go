package cos

import (
	"math"

	"cos/internal/bits"
	icos "cos/internal/cos"
	"cos/internal/ofdm"
	"cos/internal/phy"
	"cos/internal/scenario"
)

// rxResult reports the receive-side outcome of one frame. Its slice fields
// alias the receiver's scratch storage, so a result is valid only until
// the next Receive on the same receiver; Link copies what it hands to
// callers.
type rxResult struct {
	// MeasuredSNRdB is the receiver NIC's SNR estimate for this frame.
	MeasuredSNRdB float64
	// DataOK reports whether the data payload passed its frame check.
	DataOK bool
	// Data is the decoded payload (nil when DataOK is false).
	Data []byte
	// ControlDecoded reports whether interval extraction produced a control
	// bit string at all (ControlReceived is meaningful only when true).
	ControlDecoded bool
	// ControlReceived is the control bit string the receiver extracted; it
	// may be longer than the sent bits if trailing noise decoded as extra
	// intervals.
	ControlReceived []byte
	// ControlOK reports whether ControlReceived starts with the sent bits.
	ControlOK bool
	// ControlVerified reports whether the receiver validated the control
	// message through its framing CRC.
	ControlVerified bool
	// ControlPayload is the CRC-validated payload when ControlVerified.
	ControlPayload []byte
	// Detection is the energy detector's accuracy against ground truth.
	Detection icos.DetectionStats
	// Feedback is what the receiver would feed back to the transmitter;
	// meaningful only when FeedbackOK.
	Feedback linkFeedback
	// FeedbackOK reports whether feedback reached the sender: false after
	// a data loss, and false when an explicit feedback frame was lost.
	FeedbackOK bool

	// Probe ingredients (package-internal: Link's flight recorder).
	fe   *phy.FrontEnd
	hard []byte
	mask [][]bool
	det  icos.Detector
}

// receiver is the receive-side pipeline node: front end, silence
// detection, control-interval decoding, erasure Viterbi decoding, and the
// feedback computation of the paper's Fig. 8 closed loop. It owns a
// reusable scratch arena, so steady-state Receive calls allocate only
// where the selection algorithm does; results alias that arena and are
// valid until the next Receive. A receiver is not safe for concurrent use.
type receiver struct {
	cfg     config
	emb     scenario.Embedding
	ch      *channelNode
	metrics *linkMetrics

	// Feedback state (valid after the first successful frame). lastSel
	// mirrors the selection last delivered to the transmitter.
	haveFeedback bool
	measuredSNR  float64
	lastSel      []int
	haveEVM      bool
	lastEVM      [ofdm.NumData]float64
	lastSCSNRs   [ofdm.NumData]float64

	// Scratch, reused across Receives (the embedding owns the
	// mask/interval scratch).
	rx     phy.RxScratch
	ref    phy.TxScratch // reconstructed-grid scratch for feedback EVM
	eq     []complex128
	evm    [ofdm.NumData]float64
	sums   [ofdm.NumData]float64
	counts [ofdm.NumData]int
	snrs   [ofdm.NumData]float64
	res    rxResult
}

func newReceiver(cfg config, ch *channelNode, m *linkMetrics) (*receiver, error) {
	emb, err := cfg.scenario.NewEmbedding()
	if err != nil {
		return nil, err
	}
	return &receiver{cfg: cfg, emb: emb, ch: ch, metrics: m}, nil
}

// LastEVM returns the receiver's most recent per-subcarrier EVM picture
// (48 fractions), or nil before the first successful frame.
func (r *receiver) LastEVM() []float64 {
	if !r.haveEVM {
		return nil
	}
	out := make([]float64, ofdm.NumData)
	copy(out, r.lastEVM[:])
	return out
}

// Receive processes one frame's received samples: front end, silence
// detection and control decoding (when the frame carried control bits),
// erasure Viterbi data decoding, and — after a CRC pass — the feedback
// computation. The result aliases the receiver's scratch and is valid
// until the next Receive.
func (r *receiver) Receive(f *txFrame, samples []complex128, now float64) (*rxResult, error) {
	res := &r.res
	*res = rxResult{}

	spFE := r.metrics.span(StageFrontEnd)
	fe, err := phy.RunFrontEndInto(&r.rx, samples)
	if err != nil {
		return nil, err
	}
	res.MeasuredSNRdB, err = fe.MeasuredSNRdB()
	if err != nil {
		return nil, err
	}
	spFE.End()

	det := icos.Detector{Scheme: f.Mode.Modulation}
	var detectedMask [][]bool
	if len(f.ControlBits) > 0 {
		spDet := r.metrics.span(StageDetect)
		detectedMask, err = r.emb.Mask(fe, det, f.ControlSubcarriers)
		if err != nil {
			return nil, err
		}
		spDet.End()
	}

	spEVD := r.metrics.span(StageEVD)
	dec, err := fe.DecodeInto(&r.rx, phy.DecodeConfig{Mode: f.Mode, PSDULen: f.PSDULen, Erased: detectedMask})
	if err != nil {
		return nil, err
	}
	payload, dataOK := bits.CheckFCS(dec.PSDU)
	spEVD.End()

	if len(f.ControlBits) > 0 {
		// Control extraction runs after data decoding so embeddings that
		// ride the data bits (padding) can read the decode result; the
		// silence path draws no randomness here, so the order is free.
		spCtrl := r.metrics.span(StageControlDecode)
		ctrlBits, exErr := r.emb.Extract(dec, detectedMask, f.ControlSubcarriers, icos.DefaultBitsPerInterval)
		spCtrl.End()
		if exErr == nil {
			res.ControlDecoded = true
			res.ControlReceived = ctrlBits
			if r.cfg.controlFraming {
				if payload, ok := icos.ParseControl(ctrlBits); ok {
					res.ControlVerified = true
					res.ControlPayload = payload
					res.ControlOK = bits.Equal(payload, f.ControlBits)
				}
			} else {
				res.ControlOK = len(ctrlBits) >= len(f.ControlBits) && bits.Equal(ctrlBits[:len(f.ControlBits)], f.ControlBits)
			}
		}
		if f.TruthMask != nil || detectedMask != nil {
			res.Detection, err = icos.CompareMasks(f.TruthMask, detectedMask, f.ControlSubcarriers)
			if err != nil {
				return nil, err
			}
		}
	}

	if dataOK {
		res.DataOK = true
		res.Data = payload
		spFB := r.metrics.span(StageFeedback)
		fb, ok, err := r.updateFeedback(f, fe, dec.PSDU, detectedMask, res.MeasuredSNRdB, now)
		if err != nil {
			return nil, err
		}
		res.Feedback, res.FeedbackOK = fb, ok
		spFB.End()
	} else {
		// Loss: no feedback reaches the sender; reset the receiver's own
		// selection mirror so both ends fall back together (Sec. III-F).
		r.haveFeedback = false
		r.lastSel = nil
	}

	res.fe = fe
	res.hard = dec.HardCodedBits
	res.mask = detectedMask
	res.det = det
	return res, nil
}

// updateFeedback recomputes the receiver's EVM picture from the decoded
// packet (re-mapping decoded bits for ideal constellation points, as the
// paper does after a CRC pass) and refreshes the control subcarrier
// selection and SNR feedback. The bool result reports whether the
// feedback reached the sender (false when an explicit feedback frame was
// lost).
func (r *receiver) updateFeedback(f *txFrame, fe *phy.FrontEnd, psdu []byte, erased [][]bool, measured float64, now float64) (linkFeedback, bool, error) {
	grid, err := phy.ReconstructGridInto(&r.ref, f.Packet.Config, psdu)
	if err != nil {
		return linkFeedback{}, false, err
	}
	r.evm = [ofdm.NumData]float64{}
	r.sums = [ofdm.NumData]float64{}
	r.counts = [ofdm.NumData]int{}
	for s := 0; s < fe.NumSymbols(); s++ {
		r.eq, err = fe.EqualizedInto(r.eq, s)
		if err != nil {
			return linkFeedback{}, false, err
		}
		row, err := grid.Symbol(s)
		if err != nil {
			return linkFeedback{}, false, err
		}
		for d := 0; d < ofdm.NumData; d++ {
			if erased != nil && erased[s][d] {
				continue // silences are excluded from EVM (Sec. III-D)
			}
			diff := r.eq[d] - row[d]
			r.sums[d] += real(diff)*real(diff) + imag(diff)*imag(diff)
			r.counts[d]++
		}
	}
	for d := range r.evm {
		if r.counts[d] > 0 {
			r.evm[d] = math.Sqrt(r.sums[d] / float64(r.counts[d]))
		}
	}
	if _, err := fe.SubcarrierSNRsInto(r.snrs[:]); err != nil {
		return linkFeedback{}, false, err
	}
	// Smooth the channel picture across packets (EWMA): a single packet's
	// estimate is noisy enough at weak subcarriers to let a borderline
	// subcarrier slip past the detectability floor.
	if r.haveEVM {
		const alpha = 0.5
		for d := range r.evm {
			r.evm[d] = alpha*r.evm[d] + (1-alpha)*r.lastEVM[d]
			r.snrs[d] = alpha*r.snrs[d] + (1-alpha)*r.lastSCSNRs[d]
		}
	}
	if r.haveFeedback {
		// Smooth the SNR report too: rate selection on a single packet's
		// estimate flaps between modes at band edges.
		const alpha = 0.4
		measured = alpha*measured + (1-alpha)*r.measuredSNR
	}
	nextMode := phy.SelectMode(measured)
	if r.cfg.fixedRateMbps != 0 {
		nextMode = f.Mode
	}
	noDetectable := false
	sel, err := icos.SelectDetectable(r.evm[:], r.snrs[:], nextMode.Modulation, minCtrlSCs, maxCtrlSCs, 0)
	if err != nil {
		// No detectable subcarriers in this packet's estimate. Keep the
		// previous selection if one exists (estimates fluctuate packet to
		// packet); pause CoS only when there is nothing to fall back on.
		if len(r.lastSel) > 0 {
			sel = r.lastSel
		} else {
			sel = nil
			noDetectable = true
		}
	}

	if r.cfg.explicitFeedback {
		// Ship the feedback over the reverse channel (reciprocal) instead
		// of assuming ideal delivery: an ACK-sized frame plus the V symbol.
		fb := icos.Feedback{MeasuredSNRdB: clampFeedbackSNR(measured), Selected: sel}
		frame, err := icos.BuildFeedbackFrame(fb)
		if err != nil {
			return linkFeedback{}, false, err
		}
		rxf, err := r.ch.Reverse(frame, now)
		if err != nil {
			return linkFeedback{}, false, err
		}
		parsed, err := icos.ParseFeedbackFrame(rxf, icos.Detector{})
		if err != nil {
			// Feedback lost: the sender behaves as after a data loss
			// (Sec. III-F) — conservative settings next packet.
			r.haveFeedback = false
			r.lastSel = nil
			r.storeEVM()
			return linkFeedback{}, false, nil
		}
		measured = parsed.MeasuredSNRdB
		sel = parsed.Selected
		noDetectable = len(sel) == 0
	}

	r.haveFeedback = true
	r.measuredSNR = measured
	r.storeEVM()
	r.lastSel = sel
	return linkFeedback{MeasuredSNRdB: measured, ControlSubcarriers: sel, NoDetectable: noDetectable}, true, nil
}

// storeEVM records the (post-smoothing) EVM and SNR pictures as the
// baseline for the next packet's EWMA.
func (r *receiver) storeEVM() {
	r.lastEVM = r.evm
	r.lastSCSNRs = r.snrs
	r.haveEVM = true
}
