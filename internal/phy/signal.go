package phy

import (
	"fmt"

	"cos/internal/coding"
	"cos/internal/dsp"
	"cos/internal/modulation"
	"cos/internal/ofdm"
)

// The 802.11a SIGNAL field (17.3.4): one BPSK, rate-1/2 OFDM symbol carrying
// RATE (4 bits), a reserved bit, LENGTH (12 bits, LSB first), even parity,
// and 6 tail zeros. It lets the receiver discover the payload's mode and
// length without out-of-band help.

// signalRateBits maps RateMbps to the RATE field bits (b3..b0 transmitted
// b0 first; the table lists them in transmission order).
var signalRateBits = map[int][4]byte{
	6:  {1, 1, 0, 1},
	9:  {1, 1, 1, 1},
	12: {0, 1, 0, 1},
	18: {0, 1, 1, 1},
	24: {1, 0, 0, 1},
	36: {1, 0, 1, 1},
	48: {0, 0, 0, 1},
	54: {0, 0, 1, 1},
}

// MaxSignalLength is the largest PSDU length the 12-bit LENGTH field can
// carry.
const MaxSignalLength = 1<<12 - 1

// signalBits assembles the 24 SIGNAL bits for a mode and PSDU length.
func signalBits(m Mode, psduLen int) ([]byte, error) {
	rate, ok := signalRateBits[m.RateMbps]
	if !ok {
		return nil, fmt.Errorf("phy: mode %v has no SIGNAL rate code", m)
	}
	if psduLen < 0 || psduLen > MaxSignalLength {
		return nil, fmt.Errorf("phy: PSDU length %d outside the SIGNAL field's 12-bit range", psduLen)
	}
	bits := make([]byte, 24)
	copy(bits[0:4], rate[:])
	// bits[4] reserved = 0.
	for i := 0; i < 12; i++ {
		bits[5+i] = byte((psduLen >> i) & 1)
	}
	var parity byte
	for _, b := range bits[:17] {
		parity ^= b
	}
	bits[17] = parity
	// bits[18:24] tail zeros.
	return bits, nil
}

// signalInterleaver is the BPSK interleaver used by the SIGNAL symbol.
func signalInterleaver() (*coding.Interleaver, error) {
	return coding.NewInterleaver(ofdm.NumData, 1)
}

// EncodeSignal produces the 48 frequency-domain data values of the SIGNAL
// symbol for the given mode and PSDU length.
func EncodeSignal(m Mode, psduLen int) ([]complex128, error) {
	bits, err := signalBits(m, psduLen)
	if err != nil {
		return nil, err
	}
	coded, err := coding.ConvEncode(bits)
	if err != nil {
		return nil, err
	}
	il, err := signalInterleaver()
	if err != nil {
		return nil, err
	}
	interleaved, err := coding.InterleaveInto(il, nil, coded)
	if err != nil {
		return nil, err
	}
	return modulation.BPSK.MapBitsInto(nil, interleaved)
}

// DecodeSignal recovers the mode and PSDU length from the raw FFT bins of
// the SIGNAL symbol, using the front end's channel and noise estimates.
// It fails if the parity bit, the reserved bit, or the RATE code is invalid.
func DecodeSignal(fe *FrontEnd, bins *ofdm.Bins) (Mode, int, error) {
	metrics := make([]float64, 0, ofdm.NumData)
	for d := 0; d < ofdm.NumData; d++ {
		y, err := bins.DataValue(d)
		if err != nil {
			return Mode{}, 0, err
		}
		h, err := fe.ChannelAt(d)
		if err != nil {
			return Mode{}, 0, err
		}
		hMag := dsp.MagSq(h)
		if hMag < 1e-12 {
			metrics = append(metrics, 0) // dead subcarrier: erase
			continue
		}
		lam, err := modulation.BPSK.SoftDemap(y/h, fe.NoiseVar/hMag)
		if err != nil {
			return Mode{}, 0, err
		}
		metrics = append(metrics, lam...)
	}
	il, err := signalInterleaver()
	if err != nil {
		return Mode{}, 0, err
	}
	deint, err := coding.DeinterleaveInto(il, nil, metrics)
	if err != nil {
		return Mode{}, 0, err
	}
	dec := coding.Viterbi{Terminated: true}
	bits, err := dec.Decode(deint)
	if err != nil {
		return Mode{}, 0, err
	}

	var parity byte
	for _, b := range bits[:17] {
		parity ^= b
	}
	if parity != bits[17] {
		return Mode{}, 0, fmt.Errorf("phy: SIGNAL parity check failed")
	}
	if bits[4] != 0 {
		return Mode{}, 0, fmt.Errorf("phy: SIGNAL reserved bit set")
	}
	var rate [4]byte
	copy(rate[:], bits[0:4])
	var mode Mode
	found := false
	for mbps, code := range signalRateBits {
		if code == rate {
			mode, err = ModeByRate(mbps)
			if err != nil {
				return Mode{}, 0, err
			}
			found = true
			break
		}
	}
	if !found {
		return Mode{}, 0, fmt.Errorf("phy: SIGNAL rate code %v invalid", rate)
	}
	length := 0
	for i := 0; i < 12; i++ {
		length |= int(bits[5+i]) << i
	}
	return mode, length, nil
}

// SamplesWithSignal renders the packet with a leading SIGNAL symbol:
// preamble, SIGNAL (pilot index 0), then the payload symbols (pilot indices
// 1..N), exactly the 802.11a frame layout.
func (p *TxPacket) SamplesWithSignal() ([]complex128, error) {
	sig, err := EncodeSignal(p.Config.Mode, len(p.PSDU))
	if err != nil {
		return nil, err
	}
	sigGrid := ofdm.NewGrid(1)
	row, err := sigGrid.Symbol(0)
	if err != nil {
		return nil, err
	}
	copy(row, sig)
	sigSamples, err := sigGrid.Modulate(0)
	if err != nil {
		return nil, err
	}
	payload, err := p.Grid.Modulate(1)
	if err != nil {
		return nil, err
	}
	out := make([]complex128, 0, ofdm.PreambleLen+len(sigSamples)+len(payload))
	out = append(out, ofdm.Preamble()...)
	out = append(out, sigSamples...)
	out = append(out, payload...)
	return out, nil
}

// AutoReceive runs the self-describing receive path: channel estimation
// from the preamble, SIGNAL decoding for rate and length, then the payload
// front end. It returns the payload front end (SIGNAL symbol stripped), the
// discovered mode, and the PSDU length.
func AutoReceive(samples []complex128) (*FrontEnd, Mode, int, error) {
	fe, err := RunFrontEndAt(samples, 0) // symbol 0 is the SIGNAL field
	if err != nil {
		return nil, Mode{}, 0, err
	}
	if fe.NumSymbols() < 2 {
		return nil, Mode{}, 0, fmt.Errorf("phy: packet too short for SIGNAL plus payload")
	}
	mode, psduLen, err := DecodeSignal(fe, &fe.Bins[0])
	if err != nil {
		return nil, Mode{}, 0, err
	}
	// Strip the SIGNAL symbol: the payload front end's symbol s then maps
	// to pilot polarity index 1+s, exactly what Decode expects.
	payload := &FrontEnd{
		Bins:           fe.Bins[1:],
		ChannelEst:     fe.ChannelEst,
		LTFNoiseVar:    fe.LTFNoiseVar,
		PerSymbolNoise: fe.PerSymbolNoise[1:],
		NoiseVar:       fe.NoiseVar,
	}
	if want := mode.SymbolsForPSDU(psduLen); want != payload.NumSymbols() {
		return nil, Mode{}, 0, fmt.Errorf("phy: SIGNAL says %d symbols but packet has %d", want, payload.NumSymbols())
	}
	return payload, mode, psduLen, nil
}
