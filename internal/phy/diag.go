package phy

import (
	"fmt"

	"cos/internal/bits"
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

// Diagnose compares a received front end against the transmitted packet.
// erased marks positions to exclude (silence symbols); it may be nil.
// hardCoded, if non-nil, is DecodeResult.HardCodedBits and enables the
// decoder-input BER measurement.
func Diagnose(tx *TxPacket, fe *FrontEnd, erased [][]bool, hardCoded []byte) (*Diagnostics, error) {
	if tx.NumSymbols() != fe.NumSymbols() {
		return nil, fmt.Errorf("phy: tx has %d symbols, rx has %d", tx.NumSymbols(), fe.NumSymbols())
	}
	if erased != nil && len(erased) != fe.NumSymbols() {
		return nil, fmt.Errorf("phy: erasure mask has %d symbols, want %d", len(erased), fe.NumSymbols())
	}
	m := tx.Config.Mode
	nbpsc := m.NBPSC()
	d := &Diagnostics{SymbolErrors: make([][]bool, fe.NumSymbols())}

	type acc struct{ rx, ideal []complex128 }
	perSC := make([]acc, ofdm.NumData)

	for s := 0; s < fe.NumSymbols(); s++ {
		d.SymbolErrors[s] = make([]bool, ofdm.NumData)
		eq, err := fe.Equalized(s)
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
			rxBits, err := m.Modulation.HardDemap(eq[sc])
			if err != nil {
				return nil, err
			}
			txBits, err := m.Modulation.HardDemap(txRow[sc])
			if err != nil {
				return nil, err
			}
			if !bits.Equal(rxBits, txBits) {
				d.SymbolErrors[s][sc] = true
				d.SubcarrierErrorCounts[sc]++
			}
			d.SymbolsPerSubcarrier[sc]++
			perSC[sc].rx = append(perSC[sc].rx, eq[sc])
			perSC[sc].ideal = append(perSC[sc].ideal, txRow[sc])

			if hardCoded != nil {
				base := s*m.NCBPS() + sc*nbpsc
				txBase := base // CodedBits are in the same transmission order
				for i := 0; i < nbpsc; i++ {
					if hardCoded[base+i] != tx.CodedBits[txBase+i] {
						d.DecoderInputBitErrors++
					}
					d.DecoderInputBits++
				}
			}
		}
	}

	for sc := range perSC {
		if len(perSC[sc].rx) == 0 {
			continue
		}
		evm, err := modulation.EVM(m.Modulation, perSC[sc].rx, perSC[sc].ideal)
		if err != nil {
			return nil, err
		}
		d.EVM[sc] = evm
		mags, err := modulation.ErrorVectorMagnitudes(perSC[sc].rx, perSC[sc].ideal)
		if err != nil {
			return nil, err
		}
		var sum float64
		for _, v := range mags {
			sum += v
		}
		d.ErrorVectors[sc] = sum / float64(len(mags))
	}
	return d, nil
}
