package phy

import (
	"fmt"
	"math"

	"cos/internal/dsp"
	"cos/internal/modulation"
	"cos/internal/ofdm"
)

// Diagnostics aggregates the per-packet measurements behind the paper's
// Figs. 3, 5, 6 and 7: decoder-input BER, per-subcarrier symbol error
// rates, symbol-error positions within the packet, and per-subcarrier EVM.
type Diagnostics struct {
	// DecoderInputBitErrors counts hard-decision errors on the coded bits
	// entering the decoder (excluding erased positions).
	DecoderInputBitErrors int
	// DecoderInputBits is the number of coded bits compared.
	DecoderInputBits int
	// SymbolErrors[s][d] marks a demodulation error at payload symbol s,
	// data subcarrier d (excluding erased positions).
	SymbolErrors [][]bool
	// SubcarrierErrorCounts[d] counts symbol errors on data subcarrier d.
	SubcarrierErrorCounts [ofdm.NumData]int
	// SymbolsPerSubcarrier[d] counts compared symbols per subcarrier.
	SymbolsPerSubcarrier [ofdm.NumData]int
	// EVM[d] is the per-subcarrier EVM of Eq. (1), a fraction.
	EVM [ofdm.NumData]float64
	// ErrorVectors[d] is the mean error-vector magnitude |d_j| per data
	// subcarrier: the D(t) entries of Eq. (2).
	ErrorVectors [ofdm.NumData]float64
}

// ErrorPositions returns the flattened in-packet positions (symbol-major,
// subcarrier-minor: pos = s*48 + d) of every symbol error — the x-axis of
// Fig. 6(a), whose ~48-position periodicity reveals the weak subcarriers.
func (d *Diagnostics) ErrorPositions() []int {
	var out []int
	for s, row := range d.SymbolErrors {
		for sc, e := range row {
			if e {
				out = append(out, s*ofdm.NumData+sc)
			}
		}
	}
	return out
}

// FlattenMask returns the flattened symbol-major positions (pos = s*48 + d)
// of every set entry in a [symbol][subcarrier] mask; nil masks flatten to
// nil. The inverse mapping is pos/48 (symbol), pos%48 (subcarrier) — the
// same layout Diagnostics.ErrorPositions uses.
func FlattenMask(mask [][]bool) []int {
	var out []int
	for s, row := range mask {
		for d, set := range row {
			if set {
				out = append(out, s*ofdm.NumData+d)
			}
		}
	}
	return out
}

// constellationPower[s] is the mean power of scheme s's normalized
// constellation, the denominator of Eq. (1).
var constellationPower = func() (p [modulation.QAM64 + 1]float64) {
	for s := modulation.BPSK; s <= modulation.QAM64; s++ {
		p[s] = dsp.Power(s.Constellation())
	}
	return p
}()

// Diagnose compares a received front end against the transmitted packet.
// erased marks positions to exclude (silence symbols); it may be nil.
// hardCoded, if non-nil, is DecodeResult.HardCodedBits (or DemapInto's
// result) and enables the decoder-input BER measurement. Diagnose
// allocates nothing but the returned Diagnostics.
func Diagnose(tx *TxPacket, fe *FrontEnd, erased [][]bool, hardCoded []byte) (*Diagnostics, error) {
	nSym := fe.NumSymbols()
	if tx.NumSymbols() != nSym {
		return nil, fmt.Errorf("phy: tx has %d symbols, rx has %d", tx.NumSymbols(), nSym)
	}
	if erased != nil && len(erased) != nSym {
		return nil, fmt.Errorf("phy: erasure mask has %d symbols, want %d", len(erased), nSym)
	}
	m := tx.Config.Mode
	scheme := m.Modulation
	if !scheme.Valid() {
		return nil, fmt.Errorf("phy: invalid scheme %v", scheme)
	}
	nbpsc := m.NBPSC()
	d := &Diagnostics{SymbolErrors: make([][]bool, nSym)}
	flat := make([]bool, nSym*ofdm.NumData)

	// Per-subcarrier running sums of |r-s|^2 and |r-s|, accumulated in
	// symbol order so EVM and the mean error vector round exactly as a
	// sum over the collected observations would.
	var sqErr, absErr [ofdm.NumData]float64
	var eqBuf [ofdm.NumData]complex128
	for s := 0; s < nSym; s++ {
		d.SymbolErrors[s] = flat[s*ofdm.NumData : (s+1)*ofdm.NumData : (s+1)*ofdm.NumData]
		eq, err := fe.EqualizedInto(eqBuf[:], s)
		if err != nil {
			return nil, err
		}
		txRow, err := tx.Grid.Symbol(s)
		if err != nil {
			return nil, err
		}
		for sc := 0; sc < ofdm.NumData; sc++ {
			if erased != nil && erased[s][sc] {
				continue
			}
			// HardIndex fails only on an invalid scheme, refused above.
			rxIdx, _ := scheme.HardIndex(eq[sc])
			txIdx, _ := scheme.HardIndex(txRow[sc])
			if rxIdx != txIdx {
				d.SymbolErrors[s][sc] = true
				d.SubcarrierErrorCounts[sc]++
			}
			d.SymbolsPerSubcarrier[sc]++
			e := eq[sc] - txRow[sc]
			sqErr[sc] += dsp.MagSq(e)
			absErr[sc] += dsp.Abs(e)

			if hardCoded != nil {
				base := s*m.NCBPS() + sc*nbpsc // CodedBits are in the same transmission order
				for i := 0; i < nbpsc; i++ {
					if hardCoded[base+i] != tx.CodedBits[base+i] {
						d.DecoderInputBitErrors++
					}
					d.DecoderInputBits++
				}
			}
		}
	}

	for sc, n := range d.SymbolsPerSubcarrier {
		if n == 0 {
			continue
		}
		d.EVM[sc] = math.Sqrt(sqErr[sc] / float64(n) / constellationPower[scheme])
		d.ErrorVectors[sc] = absErr[sc] / float64(n)
	}
	return d, nil
}
