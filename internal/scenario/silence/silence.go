// Package silence registers the paper's silence-interval embedding as the
// "cos-silence" scheme: control bits are interval-coded into silence
// symbols on the selected control subcarriers, detected by energy
// thresholding at the receiver, and the detected mask feeds erasure
// Viterbi decoding. This is the scenario-registry face of internal/cos;
// the default link pipeline routes through it byte-for-byte.
package silence

import (
	"fmt"

	icos "cos/internal/cos"
	"cos/internal/phy"
	"cos/internal/scenario"
)

// Embedding is the silence-interval scheme. One instance serves one
// pipeline node and owns its scratch; not safe for concurrent use.
type Embedding struct {
	// Transmit-side scratch.
	intervals []int
	positions []icos.Pos
	truthMask [][]bool
	// Receive-side scratch.
	detMask  [][]bool
	rxIvals  []int
	ctrlBits []byte
}

// New builds a silence-interval embedding instance.
func New() *Embedding { return &Embedding{} }

// Budgeted reports true: silences spend the link's per-packet budget and
// pause when feedback reports no detectable subcarrier.
func (e *Embedding) Budgeted() bool { return true }

// Align returns k: unframed messages must fill whole intervals.
func (e *Embedding) Align(k int) int { return k }

// Capacity is the worst-case interval-layout capacity over nCtrl control
// subcarriers (Sec. III-C).
func (e *Embedding) Capacity(mode phy.Mode, psduLen, nCtrl, k int) int {
	return icos.MaxMessageBits(mode.SymbolsForPSDU(psduLen), nCtrl, k)
}

// Embed interval-codes wire, lays the silences out over the control
// subcarriers, and zeroes the grid at those positions.
func (e *Embedding) Embed(pkt *phy.TxPacket, ctrlSCs []int, wire []byte, k int) ([][]bool, int, error) {
	var err error
	e.intervals, err = icos.EncodeIntervalsInto(e.intervals, wire, k)
	if err != nil {
		return nil, 0, err
	}
	e.positions, err = icos.LayoutInto(e.positions, e.intervals, pkt.NumSymbols(), ctrlSCs)
	if err != nil {
		return nil, 0, err
	}
	e.truthMask, err = icos.InsertSilencesInto(e.truthMask, pkt.Grid, e.positions)
	if err != nil {
		return nil, 0, err
	}
	return e.truthMask, icos.MaskCount(e.truthMask, ctrlSCs), nil
}

// Mask runs det's energy detection over the control subcarriers.
func (e *Embedding) Mask(fe *phy.FrontEnd, det icos.Detector, ctrlSCs []int) ([][]bool, error) {
	var err error
	e.detMask, err = det.DetectMaskInto(e.detMask, fe, ctrlSCs)
	if err != nil {
		return nil, err
	}
	return e.detMask, nil
}

// Extract decodes the detected mask back into control bits.
func (e *Embedding) Extract(dec *phy.DecodeResult, mask [][]bool, ctrlSCs []int, k int) ([]byte, error) {
	if mask == nil {
		return nil, fmt.Errorf("cos-silence: extract without a detected mask")
	}
	var err error
	e.rxIvals, err = icos.ExtractIntervalsInto(e.rxIvals, mask, ctrlSCs)
	if err != nil {
		return nil, err
	}
	e.ctrlBits, err = icos.DecodeIntervalsInto(e.ctrlBits, e.rxIvals, k)
	if err != nil {
		return nil, err
	}
	return e.ctrlBits, nil
}

func init() {
	scenario.RegisterEmbedding(scenario.DefaultEmbedding, func(params []float64) (scenario.Embedding, error) {
		if len(params) != 0 {
			return nil, fmt.Errorf("cos-silence: embedding takes no parameters (got %d)", len(params))
		}
		return New(), nil
	})
}
