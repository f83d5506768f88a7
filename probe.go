package cos

import (
	icos "cos/internal/cos"
	"cos/internal/dsp"
	"cos/internal/phy"
)

// Probe is a deep PHY introspection sample: the per-subcarrier state the
// paper's Figs. 5-7 are built from, captured from inside one exchange.
// Probes are expensive (they re-demodulate the whole packet against the
// transmitted grid), so WithProbe samples them every nth exchange rather
// than on every packet.
//
// The JSON tags are the trace schema's probe record (internal/trace): Seq
// and ControlSubcarriers are left out because the trace event carries
// both already.
type Probe struct {
	// Seq is the exchange's 0-based index on its link.
	Seq int `json:"-"`
	// NumSymbols is the payload OFDM symbol count; flattened positions
	// below are symbol-major (pos = symbol*48 + subcarrier).
	NumSymbols int `json:"num_symbols"`
	// EVM is the per-data-subcarrier EVM of Eq. (1), a fraction (48 values).
	EVM []float64 `json:"evm,omitempty"`
	// ErrorVectors is the mean error-vector magnitude per data subcarrier:
	// the D(t) entries of Eq. (2).
	ErrorVectors []float64 `json:"error_vectors,omitempty"`
	// SubcarrierErrorCounts counts demodulation symbol errors per data
	// subcarrier (erased positions excluded) — the Fig. 6(b) histogram.
	SubcarrierErrorCounts []int `json:"subcarrier_error_counts,omitempty"`
	// SubcarrierSymbols counts compared symbols per data subcarrier.
	SubcarrierSymbols []int `json:"subcarrier_symbols,omitempty"`
	// SymbolErrorPositions are the flattened positions of every symbol
	// error — the x-axis of Fig. 6(a), whose ~48-periodicity exposes the
	// weak subcarriers.
	SymbolErrorPositions []int `json:"symbol_error_positions,omitempty"`
	// ErasurePositions are the flattened positions the energy detector
	// declared silent (erased before the Viterbi decoder).
	ErasurePositions []int `json:"erasure_positions,omitempty"`
	// DecoderInputBitErrors / DecoderInputBits give the hard-decision BER
	// on the coded bits entering the decoder (Fig. 3).
	DecoderInputBitErrors int `json:"decoder_input_bit_errors,omitempty"`
	DecoderInputBits      int `json:"decoder_input_bits,omitempty"`
	// ControlSubcarriers is the control set the detector scanned; the two
	// detector slices below are indexed parallel to it.
	ControlSubcarriers []int `json:"-"`
	// DetectorThresholds is the adaptive post-FFT energy threshold the
	// detector used on each control subcarrier.
	DetectorThresholds []float64 `json:"detector_thresholds,omitempty"`
	// DetectorEnergyRatios is, per control subcarrier, the mean raw bin
	// energy across payload symbols divided by that subcarrier's threshold:
	// how much margin the detector had (values near 1 mean the silent/active
	// populations are hard to separate).
	DetectorEnergyRatios []float64 `json:"detector_energy_ratios,omitempty"`
	// NoiseVar is the pilot-aided post-FFT noise variance estimate eta.
	NoiseVar float64 `json:"noise_var,omitempty"`
}

// buildProbe assembles a Probe from one exchange's transmit packet and
// front end. erased may be nil (data-only packet); hard may be nil.
func buildProbe(ex *Exchange, pkt *phy.TxPacket, fe *phy.FrontEnd, erased [][]bool, hard []byte, det icos.Detector, ctrlSCs []int) (*Probe, error) {
	d, err := phy.Diagnose(pkt, fe, erased, hard)
	if err != nil {
		return nil, err
	}
	p := &Probe{
		Seq:                   ex.Seq,
		NumSymbols:            fe.NumSymbols(),
		EVM:                   append([]float64(nil), d.EVM[:]...),
		ErrorVectors:          append([]float64(nil), d.ErrorVectors[:]...),
		SubcarrierErrorCounts: append([]int(nil), d.SubcarrierErrorCounts[:]...),
		SubcarrierSymbols:     append([]int(nil), d.SymbolsPerSubcarrier[:]...),
		SymbolErrorPositions:  d.ErrorPositions(),
		ErasurePositions:      phy.FlattenMask(erased),
		DecoderInputBitErrors: d.DecoderInputBitErrors,
		DecoderInputBits:      d.DecoderInputBits,
		ControlSubcarriers:    append([]int(nil), ctrlSCs...),
		NoiseVar:              fe.NoiseVar,
	}
	p.DetectorThresholds = make([]float64, len(ctrlSCs))
	p.DetectorEnergyRatios = make([]float64, len(ctrlSCs))
	for i, sc := range ctrlSCs {
		th, err := det.Threshold(fe, sc)
		if err != nil {
			return nil, err
		}
		var energy float64
		for s := 0; s < fe.NumSymbols(); s++ {
			y, err := fe.Bins[s].DataValue(sc)
			if err != nil {
				return nil, err
			}
			energy += dsp.MagSq(y)
		}
		if n := fe.NumSymbols(); n > 0 {
			energy /= float64(n)
		}
		p.DetectorThresholds[i] = th
		if th > 0 {
			p.DetectorEnergyRatios[i] = energy / th
		}
	}
	return p, nil
}
