package phy

import (
	"fmt"

	"cos/internal/bits"
	"cos/internal/coding"
	"cos/internal/dsp"
	"cos/internal/ofdm"
)

// FrontEnd is the receiver's pre-decoding state: raw FFT bins of every
// payload symbol, the LS channel estimate from the long training field, and
// the pilot-aided noise estimate of Eqs. (5)-(6). The CoS energy detector
// consumes the raw bins; the decoder consumes the equalized symbols.
type FrontEnd struct {
	// Bins holds the un-equalized FFT output of each payload OFDM symbol.
	Bins []ofdm.Bins
	// ChannelEst is the per-bin LS channel estimate H_hat.
	ChannelEst [ofdm.NumSubcarriers]complex128
	// NoiseVar is the pilot-aided post-FFT noise variance estimate eta,
	// averaged over all payload symbols.
	NoiseVar float64
	// PerSymbolNoise is the pilot-aided noise estimate of each symbol.
	PerSymbolNoise []float64
	// LTFNoiseVar is an independent noise estimate from the difference of
	// the two long training symbols.
	LTFNoiseVar float64
}

// RunFrontEnd consumes a packet's baseband samples (preamble + payload) and
// produces the front-end state. The payload length must be a whole number
// of OFDM symbols; timing synchronization is assumed ideal.
func RunFrontEnd(samples []complex128) (*FrontEnd, error) {
	return runFrontEnd(&FrontEnd{}, samples)
}

// runFrontEnd fills fe from samples, reusing the capacity of fe.Bins and
// fe.PerSymbolNoise. All other fields are overwritten.
func runFrontEnd(fe *FrontEnd, samples []complex128) (*FrontEnd, error) {
	if len(samples) < ofdm.PreambleLen+ofdm.SymbolLen {
		return nil, fmt.Errorf("phy: packet too short: %d samples", len(samples))
	}
	payload := samples[ofdm.PreambleLen:]
	if len(payload)%ofdm.SymbolLen != 0 {
		return nil, fmt.Errorf("phy: payload %d samples is not a whole number of OFDM symbols", len(payload))
	}

	y1, y2, err := ofdm.LongTrainingObservations(samples[:ofdm.PreambleLen])
	if err != nil {
		return nil, err
	}
	fe.ChannelEst = [ofdm.NumSubcarriers]complex128{}
	var ltfNoise float64
	occupied := 0
	for k := -26; k <= 26; k++ {
		if k == 0 {
			continue
		}
		bin, err := ofdm.Bin(k)
		if err != nil {
			return nil, err
		}
		l := ofdm.LongTrainingValue(k)
		fe.ChannelEst[bin] = (y1[bin] + y2[bin]) / (2 * l)
		d := y1[bin] - y2[bin]
		ltfNoise += dsp.MagSq(d) / 2
		occupied++
	}
	fe.LTFNoiseVar = ltfNoise / float64(occupied)

	fe.Bins, err = ofdm.DemodulateInto(fe.Bins, payload)
	if err != nil {
		return nil, err
	}

	// Pilot-aided noise estimation (Eqs. (5)-(6)): n_i = y_i - H_hat_i x_i
	// on each pilot. The residual also carries the channel-estimation
	// error: H_hat averages two LTF symbols, so Var(H_hat - H) = eta/2 and
	// E|y - H_hat x|^2 = eta + eta/2 |x|^2 = 1.5 eta for unit pilots.
	// Dividing by that factor makes the estimator unbiased.
	const pilotEstimateBias = 1.5
	if cap(fe.PerSymbolNoise) < len(fe.Bins) {
		fe.PerSymbolNoise = make([]float64, len(fe.Bins))
	}
	fe.PerSymbolNoise = fe.PerSymbolNoise[:len(fe.Bins)]
	var total float64
	for s := range fe.Bins {
		var acc float64
		for p := 0; p < ofdm.NumPilots; p++ {
			obs, err := fe.Bins[s].PilotObservation(p)
			if err != nil {
				return nil, err
			}
			binIdx, err := ofdm.Bin(ofdm.PilotIndices[p])
			if err != nil {
				return nil, err
			}
			// Pilot polarity index 0 belongs to the 802.11a SIGNAL symbol,
			// which this link never transmits (the receiver is handed the
			// rate and length), so payload symbol s carries index 1+s.
			want, err := ofdm.PilotValue(p, 1+s)
			if err != nil {
				return nil, err
			}
			n := obs - fe.ChannelEst[binIdx]*want
			acc += dsp.MagSq(n)
		}
		fe.PerSymbolNoise[s] = acc / (ofdm.NumPilots * pilotEstimateBias)
		total += fe.PerSymbolNoise[s]
	}
	fe.NoiseVar = total / float64(len(fe.Bins))
	return fe, nil
}

// NumSymbols returns the number of payload OFDM symbols.
func (fe *FrontEnd) NumSymbols() int { return len(fe.Bins) }

// ChannelAt returns the channel estimate of data subcarrier d (0..47).
func (fe *FrontEnd) ChannelAt(d int) (complex128, error) {
	k, err := ofdm.DataIndex(d)
	if err != nil {
		return 0, err
	}
	bin, err := ofdm.Bin(k)
	if err != nil {
		return 0, err
	}
	return fe.ChannelEst[bin], nil
}

// Equalized returns the zero-forcing-equalized data subcarriers of payload
// symbol s: Y_k / H_hat_k.
func (fe *FrontEnd) Equalized(s int) ([]complex128, error) {
	return fe.EqualizedInto(nil, s)
}

// EqualizedInto is Equalized writing into dst, which is grown (reusing its
// capacity) to ofdm.NumData values.
func (fe *FrontEnd) EqualizedInto(dst []complex128, s int) ([]complex128, error) {
	if s < 0 || s >= len(fe.Bins) {
		return nil, fmt.Errorf("phy: symbol %d out of range [0,%d)", s, len(fe.Bins))
	}
	if cap(dst) < ofdm.NumData {
		dst = make([]complex128, ofdm.NumData)
	}
	out := dst[:ofdm.NumData]
	for d := 0; d < ofdm.NumData; d++ {
		y, err := fe.Bins[s].DataValue(d)
		if err != nil {
			return nil, err
		}
		h, err := fe.ChannelAt(d)
		if err != nil {
			return nil, err
		}
		if dsp.MagSq(h) < 1e-12 {
			out[d] = 0
			continue
		}
		out[d] = y / h
	}
	return out, nil
}

// SubcarrierSNRs returns the estimated linear SNR of each data subcarrier:
// |H_hat_k|^2 / eta (unit-power constellations make Es = 1).
func (fe *FrontEnd) SubcarrierSNRs() ([]float64, error) {
	return fe.SubcarrierSNRsInto(nil)
}

// SubcarrierSNRsInto is SubcarrierSNRs writing into dst, which is grown
// (reusing its capacity) to ofdm.NumData values.
func (fe *FrontEnd) SubcarrierSNRsInto(dst []float64) ([]float64, error) {
	noise := fe.NoiseVar
	if noise <= 0 {
		noise = 1e-12
	}
	if cap(dst) < ofdm.NumData {
		dst = make([]float64, ofdm.NumData)
	}
	out := dst[:ofdm.NumData]
	for d := range out {
		h, err := fe.ChannelAt(d)
		if err != nil {
			return nil, err
		}
		out[d] = dsp.MagSq(h) / noise
	}
	return out, nil
}

// MeasuredSNRdB models the NIC's SNR report: the mean of the per-subcarrier
// SNRs in the dB domain. Jensen's inequality drags this below the true
// (arithmetic-mean) SNR on frequency-selective channels — the paper's
// "measured SNR is dragged to a low value by those fading subcarriers".
func (fe *FrontEnd) MeasuredSNRdB() (float64, error) {
	noise := fe.NoiseVar
	if noise <= 0 {
		noise = 1e-12
	}
	var sum float64
	for d := 0; d < ofdm.NumData; d++ {
		h, err := fe.ChannelAt(d)
		if err != nil {
			return 0, err
		}
		s := dsp.MagSq(h) / noise
		if s < 1e-9 {
			s = 1e-9
		}
		sum += dsp.DB(s)
	}
	return sum / float64(ofdm.NumData), nil
}

// DecodeConfig configures the decoding stage.
type DecodeConfig struct {
	// Mode must match the transmitter's.
	Mode Mode
	// ScramblerSeed must match the transmitter's (zero selects the
	// default).
	ScramblerSeed byte
	// PSDULen is the expected PSDU length in bytes (known from the SIGNAL
	// field in a real system; carried out-of-band here).
	PSDULen int
	// Erased marks silence symbols found by the energy detector:
	// Erased[s][d] erases all bit metrics of data subcarrier d in payload
	// symbol s (the paper's Eq. (7)). nil means no erasures.
	Erased [][]bool
	// LLRBits, when nonzero, quantizes the decoder-input metrics to the
	// given signed fixed-point width (hardware receivers use 3-6 bits);
	// zero keeps full floating-point metrics.
	LLRBits int
}

// Validate reports configuration errors against the front end fe.
func (c DecodeConfig) Validate(fe *FrontEnd) error {
	if !c.Mode.Valid() {
		return fmt.Errorf("phy: invalid mode %+v", c.Mode)
	}
	if c.PSDULen < 0 {
		return fmt.Errorf("phy: negative PSDU length %d", c.PSDULen)
	}
	if need := c.Mode.SymbolsForPSDU(c.PSDULen); need != fe.NumSymbols() {
		return fmt.Errorf("phy: %d payload symbols but mode %v with %d-byte PSDU needs %d",
			fe.NumSymbols(), c.Mode, c.PSDULen, need)
	}
	if c.LLRBits != 0 && (c.LLRBits < 2 || c.LLRBits > 16) {
		return fmt.Errorf("phy: LLR width %d outside [2,16]", c.LLRBits)
	}
	if c.Erased != nil {
		if len(c.Erased) != fe.NumSymbols() {
			return fmt.Errorf("phy: erasure mask has %d symbols, payload has %d", len(c.Erased), fe.NumSymbols())
		}
		for s, row := range c.Erased {
			if len(row) != ofdm.NumData {
				return fmt.Errorf("phy: erasure mask symbol %d has %d entries, want %d", s, len(row), ofdm.NumData)
			}
		}
	}
	return nil
}

// DecodeResult is the output of the decoding stage.
type DecodeResult struct {
	// PSDU is the decoded MAC payload (always PSDULen bytes; integrity is
	// the link layer's concern via its FCS).
	PSDU []byte
	// DataBits are the descrambled data bits (SERVICE + PSDU + tail+pad).
	DataBits []byte
	// HardCodedBits are sign decisions of the pre-deinterleaver metrics in
	// transmission order; comparing them against TxPacket.CodedBits gives
	// the decoder-input BER of Fig. 3.
	HardCodedBits []byte
}

// Decode demaps, deinterleaves, depunctures, Viterbi-decodes, and
// descrambles the payload. Erasures (silence symbols and punctured
// positions) enter the decoder as zero metrics.
func (fe *FrontEnd) Decode(cfg DecodeConfig) (*DecodeResult, error) {
	return fe.DecodeInto(nil, cfg)
}

// DecodeInto is Decode using s as working storage; the returned result and
// its slices alias s and are valid until the next decode with the same
// scratch. A nil s decodes into fresh storage, making DecodeInto(nil, cfg)
// identical to Decode(cfg).
func (fe *FrontEnd) DecodeInto(s *RxScratch, cfg DecodeConfig) (*DecodeResult, error) {
	if err := cfg.Validate(fe); err != nil {
		return nil, err
	}
	if s == nil {
		s = &RxScratch{}
	}
	m := cfg.Mode
	il, scheme, err := mapperFor(m)
	if err != nil {
		return nil, err
	}
	nbpsc := m.NBPSC()

	ncbps := m.NCBPS()
	nMetrics := fe.NumSymbols() * ncbps
	if cap(s.metrics) < nMetrics {
		s.metrics = make([]float64, nMetrics)
	}
	metrics := s.metrics[:nMetrics]
	if cap(s.hard) < nMetrics {
		s.hard = make([]byte, nMetrics)
	}
	hard := s.hard[:nMetrics]
	if cap(s.symMetrics) < ncbps {
		s.symMetrics = make([]float64, ncbps)
	}
	symMetrics := s.symMetrics[:ncbps]
	for sym := 0; sym < fe.NumSymbols(); sym++ {
		s.eq, err = fe.EqualizedInto(s.eq, sym)
		if err != nil {
			return nil, err
		}
		eq := s.eq
		noise := fe.NoiseVar
		for d := 0; d < ofdm.NumData; d++ {
			dst := symMetrics[d*nbpsc : (d+1)*nbpsc]
			if cfg.Erased != nil && cfg.Erased[sym][d] {
				for i := range dst {
					dst[i] = 0
				}
				continue
			}
			h, err := fe.ChannelAt(d)
			if err != nil {
				return nil, err
			}
			hMag := dsp.MagSq(h)
			postEqNoise := 1e9 // unusable subcarrier: metrics ~ 0
			if hMag > 1e-12 {
				postEqNoise = noise / hMag
			}
			if err := scheme.SoftDemapInto(dst, eq[d], postEqNoise); err != nil {
				return nil, err
			}
		}
		base := sym * ncbps
		for i, v := range symMetrics {
			if v > 0 {
				hard[base+i] = 1
			} else {
				hard[base+i] = 0
			}
		}
		if _, err := coding.DeinterleaveInto(il, metrics[base:base+ncbps], symMetrics); err != nil {
			return nil, err
		}
	}

	s.full, err = coding.DepunctureMetricsInto(s.full, metrics, m.CodeRate)
	if err != nil {
		return nil, err
	}
	full := s.full
	if cfg.LLRBits != 0 {
		full, err = QuantizeMetrics(full, cfg.LLRBits, 0)
		if err != nil {
			return nil, err
		}
	}
	dec := coding.Viterbi{Terminated: true}
	scrambled, err := dec.DecodeInto(&s.vit, full)
	if err != nil {
		return nil, err
	}
	seed := cfg.ScramblerSeed
	if seed == 0 {
		seed = DefaultScramblerSeed
	}
	s.descr = bits.NewScrambler(seed).ScrambleInto(s.descr, scrambled)
	descr := s.descr
	// The tail bits were zeroed post-scrambling at the transmitter, so
	// descrambling mangles them; that region carries no data.
	psduBits := descr[serviceBits : serviceBits+8*cfg.PSDULen]
	s.psdu, err = bits.ToBytesInto(s.psdu, psduBits)
	if err != nil {
		return nil, err
	}
	s.res = DecodeResult{PSDU: s.psdu, DataBits: descr, HardCodedBits: hard}
	return &s.res, nil
}
