package cos

import (
	"fmt"
	"math"

	"cos/internal/bits"
	"cos/internal/ofdm"
	"cos/internal/phy"
)

// The paper transmits the receiver's feedback "built on top of the
// transmission of ACK frame" (Sec. III-A): a small acknowledgement PSDU at
// the base rate carrying the measured SNR, followed by ONE extra OFDM
// symbol — the subcarrier-selection vector V, in which a silence on data
// subcarrier j means "j is a control subcarrier" (Sec. III-D).

// feedbackMode is the base rate used for feedback frames.
const feedbackRateMbps = 6

// feedbackMagic tags feedback PSDUs so stray frames are not misparsed.
const feedbackMagic = 0xC5

// snrQuant is the SNR quantization step (dB) of the feedback payload.
const snrQuant = 0.25

// snrOffset shifts the quantized SNR so negative values encode.
const snrOffset = 10.0

// Feedback is the receiver state carried back to the sender.
type Feedback struct {
	// MeasuredSNRdB is the receiver's NIC SNR report (quantized to 0.25 dB
	// on the wire, range -10..+53.75 dB).
	MeasuredSNRdB float64
	// Selected lists the control subcarriers chosen by the receiver.
	Selected []int
}

// encodePSDU packs the feedback scalar fields: magic, quantized SNR, and
// the selection count (for a crosscheck against the V symbol), FCS-framed.
func (f Feedback) encodePSDU() ([]byte, error) {
	q := math.Round((f.MeasuredSNRdB + snrOffset) / snrQuant)
	if q < 0 || q > 255 {
		return nil, fmt.Errorf("cos: measured SNR %.2f dB outside the feedback range", f.MeasuredSNRdB)
	}
	body := []byte{feedbackMagic, byte(q), byte(len(f.Selected))}
	return bits.AppendFCSInto(nil, body), nil
}

// decodePSDU inverts encodePSDU; ok is false on FCS or format mismatch.
func decodePSDU(psdu []byte) (snrDB float64, selCount int, ok bool) {
	body, ok := bits.CheckFCS(psdu)
	if !ok || len(body) != 3 || body[0] != feedbackMagic {
		return 0, 0, false
	}
	return float64(body[1])*snrQuant - snrOffset, int(body[2]), true
}

// BuildFeedbackFrame renders a feedback frame to baseband samples: preamble,
// the ACK payload symbols at 6 Mb/s, then the one-symbol selection vector V
// (all data subcarriers +1 except silences on the selected ones).
// An empty selection is legal: the V symbol carries no silences and the
// payload count is zero (CoS paused on a hostile channel).
func BuildFeedbackFrame(f Feedback) ([]complex128, error) {
	if len(f.Selected) > 0 {
		if err := validateCtrlSCs(f.Selected); err != nil {
			return nil, err
		}
	}
	mode, err := phy.ModeByRate(feedbackRateMbps)
	if err != nil {
		return nil, err
	}
	psdu, err := f.encodePSDU()
	if err != nil {
		return nil, err
	}
	pkt, err := phy.BuildPacket(phy.TxConfig{Mode: mode}, psdu)
	if err != nil {
		return nil, err
	}
	payload, err := pkt.Grid.Modulate(1)
	if err != nil {
		return nil, err
	}
	vGrid, err := EncodeFeedback(f.Selected)
	if err != nil {
		return nil, err
	}
	// The V symbol continues the pilot polarity sequence after the payload.
	vSamples, err := vGrid.Modulate(1 + pkt.NumSymbols())
	if err != nil {
		return nil, err
	}
	out := make([]complex128, 0, ofdm.PreambleLen+len(payload)+len(vSamples))
	out = append(out, ofdm.Preamble()...)
	out = append(out, payload...)
	out = append(out, vSamples...)
	return out, nil
}

// feedbackSymbols returns the payload symbol count of a feedback frame.
func feedbackSymbols() (int, error) {
	mode, err := phy.ModeByRate(feedbackRateMbps)
	if err != nil {
		return 0, err
	}
	return mode.SymbolsForPSDU(3 + bits.FCSLen), nil
}

// ParseFeedbackFrame recovers the feedback from received samples. The V
// symbol is scanned with the energy detector (BPSK discrimination); the
// scalar payload is decoded normally and validated by FCS. A count mismatch
// between the payload's selection count and the scanned V symbol is
// reported as an error (detection was unreliable).
func ParseFeedbackFrame(samples []complex128, det Detector) (Feedback, error) {
	var f Feedback
	mode, err := phy.ModeByRate(feedbackRateMbps)
	if err != nil {
		return f, err
	}
	nAck, err := feedbackSymbols()
	if err != nil {
		return f, err
	}
	fe, err := phy.RunFrontEnd(samples)
	if err != nil {
		return f, err
	}
	if fe.NumSymbols() != nAck+1 {
		return f, fmt.Errorf("cos: feedback frame has %d symbols, want %d", fe.NumSymbols(), nAck+1)
	}

	// Scalar part: decode the first nAck symbols as a normal packet.
	ackFE := &phy.FrontEnd{
		Bins:           fe.Bins[:nAck],
		ChannelEst:     fe.ChannelEst,
		NoiseVar:       fe.NoiseVar,
		PerSymbolNoise: fe.PerSymbolNoise[:nAck],
		LTFNoiseVar:    fe.LTFNoiseVar,
	}
	dec, err := ackFE.Decode(phy.DecodeConfig{Mode: mode, PSDULen: 3 + bits.FCSLen})
	if err != nil {
		return f, err
	}
	snrDB, selCount, ok := decodePSDU(dec.PSDU)
	if !ok {
		return f, fmt.Errorf("cos: feedback payload failed its frame check")
	}

	// V symbol: silence scan over all 48 data subcarriers. The symbol is
	// BPSK-like (+1 on unselected subcarriers).
	det.Scheme = 0 // unit minimum point energy
	scan, err := det.DetectSymbol(fe, nAck)
	if err != nil {
		return f, err
	}
	// Deeply faded subcarriers always scan as silent, but the selection
	// rule (SelectDetectable) never picks undetectable subcarriers, so the
	// sender can discard those scan hits: under channel reciprocity both
	// ends agree on which subcarriers are dead.
	snrs, err := fe.SubcarrierSNRs()
	if err != nil {
		return f, err
	}
	for sc := range scan {
		if scan[sc] && snrs[sc] < DefaultDetectabilityFloor {
			scan[sc] = false
		}
	}
	sel, err := MaskToSelection(scan)
	if err != nil {
		return f, err
	}
	if len(sel) != selCount {
		return f, fmt.Errorf("cos: V symbol shows %d selected subcarriers, payload says %d", len(sel), selCount)
	}
	f.MeasuredSNRdB = snrDB
	f.Selected = sel
	return f, nil
}
