package phy

import (
	"fmt"

	"cos/internal/bits"
	"cos/internal/coding"
	"cos/internal/ofdm"
)

// preambleSamples caches the (fixed) 320-sample PLCP preamble so SamplesInto
// never rebuilds it.
var preambleSamples = ofdm.Preamble()

// TxScratch is the transmit chain's reusable working storage. One scratch
// serves one transmitter; it must not be shared across concurrent builds.
// Packets returned by BuildPacketInto alias the scratch (PSDU, grid, coded
// bits) and are valid only until the next build with the same scratch.
// The zero value is ready to use; buffers grow on demand and are retained.
type TxScratch struct {
	dataBits    []byte
	scrambled   []byte
	coded       []byte
	punctured   []byte
	interleaved []byte
	points      []complex128
	grid        ofdm.Grid
	psdu        []byte
	pkt         TxPacket
}

// BuildPacketInto runs the 802.11a transmit chain up to the
// frequency-domain grid: SERVICE + PSDU + tail + pad, scramble,
// convolutionally encode, puncture, interleave, and map onto constellation
// points. s is the working storage; the returned packet aliases s and is
// valid until the next build with the same scratch. A nil s builds into
// fresh storage.
func BuildPacketInto(s *TxScratch, cfg TxConfig, psdu []byte) (*TxPacket, error) {
	if s == nil {
		s = &TxScratch{}
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(psdu) > MaxPSDUBytes {
		return nil, fmt.Errorf("phy: PSDU of %d octets exceeds the 802.11a limit of %d (12-bit LENGTH field)", len(psdu), MaxPSDUBytes)
	}
	m := cfg.Mode

	// Assemble data bits: SERVICE (16 zeros) + PSDU + 6 tail zeros, padded
	// to a whole number of OFDM symbols.
	nSym := m.SymbolsForPSDU(len(psdu))
	total := nSym * m.NDBPS()
	if cap(s.dataBits) < total {
		s.dataBits = make([]byte, total)
	}
	s.dataBits = s.dataBits[:total]
	for i := range s.dataBits {
		s.dataBits[i] = 0
	}
	bits.FromBytesInto(s.dataBits[serviceBits:serviceBits+8*len(psdu)], psdu)

	// Scramble everything, then zero the tail bits so the encoder is
	// flushed to the zero state (17.3.5.3). The pad bits after the tail are
	// zeroed as well — unlike the standard, which transmits them scrambled —
	// so the trellis stays terminated through the end of the block; pad bits
	// carry no information either way.
	scr := bits.NewScrambler(cfg.seed())
	s.scrambled = scr.ScrambleInto(s.scrambled, s.dataBits)
	tailStart := serviceBits + 8*len(psdu)
	for i := tailStart; i < len(s.scrambled); i++ {
		s.scrambled[i] = 0
	}

	var err error
	s.coded, err = coding.ConvEncodeInto(s.coded, s.scrambled)
	if err != nil {
		return nil, err
	}
	s.punctured, err = coding.PunctureInto(s.punctured, s.coded, m.CodeRate)
	if err != nil {
		return nil, err
	}
	il, err := coding.CachedInterleaver(m.NCBPS(), m.NBPSC())
	if err != nil {
		return nil, err
	}
	s.interleaved, err = coding.InterleaveInto(il, s.interleaved, s.punctured)
	if err != nil {
		return nil, err
	}
	s.points, err = m.Modulation.MapBitsInto(s.points, s.interleaved)
	if err != nil {
		return nil, err
	}
	if len(s.points) != nSym*ofdm.NumData {
		return nil, fmt.Errorf("phy: internal error: %d points for %d symbols", len(s.points), nSym)
	}
	s.grid.Resize(nSym)
	for sym := 0; sym < nSym; sym++ {
		row, err := s.grid.Symbol(sym)
		if err != nil {
			return nil, err
		}
		copy(row, s.points[sym*ofdm.NumData:(sym+1)*ofdm.NumData])
	}
	if cap(s.psdu) < len(psdu) {
		s.psdu = make([]byte, len(psdu))
	}
	s.psdu = s.psdu[:len(psdu)]
	copy(s.psdu, psdu)
	s.pkt = TxPacket{
		Config:        cfg,
		PSDU:          s.psdu,
		Grid:          &s.grid,
		CodedBits:     s.interleaved,
		ScrambledBits: s.scrambled,
	}
	return &s.pkt, nil
}

// SamplesInto renders the packet to baseband time-domain samples: the
// 320-sample PLCP preamble followed by the cyclic-prefixed OFDM payload
// symbols. Call after any grid mutation (silence insertion). dst is grown
// (reusing its capacity) to preamble + payload length; the cached preamble
// is copied and the grid is modulated directly into the destination.
func (p *TxPacket) SamplesInto(dst []complex128) ([]complex128, error) {
	n := ofdm.PreambleLen + p.Grid.NumSymbols()*ofdm.SymbolLen
	if cap(dst) < n {
		dst = make([]complex128, n)
	}
	dst = dst[:n]
	copy(dst, preambleSamples)
	if _, err := p.Grid.ModulateInto(1, dst[ofdm.PreambleLen:]); err != nil {
		return nil, err
	}
	return dst, nil
}

// ReconstructGridInto rebuilds the transmitted frequency-domain grid from a
// correctly decoded PSDU. This is how the paper's receiver obtains ideal
// constellation points for EVM after a CRC pass (Sec. III-D): re-map the
// decoded bits rather than assume genie knowledge. s is the working
// storage; the returned grid aliases s.
func ReconstructGridInto(s *TxScratch, cfg TxConfig, psdu []byte) (*ofdm.Grid, error) {
	pkt, err := BuildPacketInto(s, cfg, psdu)
	if err != nil {
		return nil, err
	}
	return pkt.Grid, nil
}

// RxScratch is the receive chain's reusable working storage: the front-end
// state plus every intermediate decode buffer. One scratch serves one
// receiver; results returned by RunFrontEndInto and DecodeInto alias the
// scratch and are valid only until its next use. The zero value is ready to
// use.
type RxScratch struct {
	fe         FrontEnd
	eq         []complex128
	metrics    []float64
	symMetrics []float64
	full       []float64
	hard       []byte
	vit        coding.ViterbiScratch
	descr      []byte
	psdu       []byte
	res        DecodeResult
}

// RunFrontEndInto is RunFrontEnd filling s's front end. The returned front
// end aliases s and is valid until the next RunFrontEndInto with the same
// scratch. A nil s runs into fresh storage.
func RunFrontEndInto(s *RxScratch, samples []complex128) (*FrontEnd, error) {
	if s == nil {
		s = &RxScratch{}
	}
	return runFrontEnd(&s.fe, samples)
}
