package cos

import (
	"fmt"

	"cos/internal/dsp"
	"cos/internal/ofdm"
	"cos/internal/phy"
)

// The CoS embed/extract chain. Each XxxInto function writes into a
// caller-owned destination, growing it only when its capacity is
// insufficient; a nil destination allocates. Destinations must not alias
// inputs.

// GrowMask reshapes mask to numSymbols all-false rows of ofdm.NumData
// entries ([symbol][48]), reusing row storage where possible; a nil mask
// allocates a fresh one.
func GrowMask(mask [][]bool, numSymbols int) [][]bool {
	if cap(mask) < numSymbols {
		grown := make([][]bool, numSymbols)
		copy(grown, mask[:cap(mask)])
		mask = grown
	}
	mask = mask[:numSymbols]
	for i := range mask {
		if cap(mask[i]) < ofdm.NumData {
			mask[i] = make([]bool, ofdm.NumData)
			continue
		}
		mask[i] = mask[i][:ofdm.NumData]
		for j := range mask[i] {
			mask[i][j] = false
		}
	}
	return mask
}

// MaskCount counts the true entries of a mask over the given control
// subcarriers — len(MaskPositions(mask, ctrlSCs)) without building the list.
func MaskCount(mask [][]bool, ctrlSCs []int) int {
	n := 0
	for s := range mask {
		for _, sc := range ctrlSCs {
			if mask[s][sc] {
				n++
			}
		}
	}
	return n
}

// EncodeIntervalsInto chunks control bits into k-bit groups, MSB first (the
// paper's example maps "0010" to interval 2), writing the intervals into
// dst. len(controlBits) must be a multiple of k.
func EncodeIntervalsInto(dst []int, controlBits []byte, k int) ([]int, error) {
	if k < 1 || k > 16 {
		return nil, fmt.Errorf("cos: bits per interval %d out of range [1,16]", k)
	}
	if len(controlBits)%k != 0 {
		return nil, fmt.Errorf("cos: control length %d is not a multiple of k=%d", len(controlBits), k)
	}
	n := len(controlBits) / k
	if cap(dst) < n {
		dst = make([]int, n)
	}
	dst = dst[:n]
	for i := 0; i < n; i++ {
		v := 0
		for j := 0; j < k; j++ {
			b := controlBits[i*k+j]
			if b > 1 {
				return nil, fmt.Errorf("cos: element %d = %d is not a bit", i*k+j, b)
			}
			v = v<<1 | int(b)
		}
		dst[i] = v
	}
	return dst, nil
}

// DecodeIntervalsInto converts intervals back into control bits (k bits
// each, MSB first) in dst.
func DecodeIntervalsInto(dst []byte, intervals []int, k int) ([]byte, error) {
	if k < 1 || k > 16 {
		return nil, fmt.Errorf("cos: bits per interval %d out of range [1,16]", k)
	}
	n := len(intervals) * k
	if cap(dst) < n {
		dst = make([]byte, n)
	}
	dst = dst[:n]
	for i, v := range intervals {
		if v < 0 || v >= 1<<k {
			return nil, fmt.Errorf("cos: interval %d out of range [0,%d]", v, 1<<k-1)
		}
		for j := 0; j < k; j++ {
			dst[i*k+j] = byte((v >> (k - 1 - j)) & 1)
		}
	}
	return dst, nil
}

// LayoutInto places silence symbols for the given intervals onto the
// control subcarriers of a packet, writing the positions into dst. The
// traversal is slot-major (all control subcarriers of symbol 0 in ascending
// order, then symbol 1, ...), matching Fig. 1(a). The first traversal
// position is always a silence marking the start of the control message;
// each interval v then skips v normal symbols before the next silence.
//
// numSymbols is the packet's payload symbol count and ctrlSCs the selected
// control subcarriers (data subcarrier indices 0..47, ascending). LayoutInto
// fails if the message does not fit.
func LayoutInto(dst []Pos, intervals []int, numSymbols int, ctrlSCs []int) ([]Pos, error) {
	if err := validateCtrlSCs(ctrlSCs); err != nil {
		return nil, err
	}
	if numSymbols < 1 {
		return nil, fmt.Errorf("cos: packet has %d symbols", numSymbols)
	}
	capacity := numSymbols * len(ctrlSCs)
	need := 1
	for _, v := range intervals {
		if v < 0 {
			return nil, fmt.Errorf("cos: negative interval %d", v)
		}
		need += v + 1
	}
	if need > capacity {
		return nil, fmt.Errorf("cos: message needs %d control positions, packet offers %d (%d symbols x %d subcarriers)",
			need, capacity, numSymbols, len(ctrlSCs))
	}
	n := len(intervals) + 1
	if cap(dst) < n {
		dst = make([]Pos, n)
	}
	dst = dst[:n]
	idx := 0
	dst[0] = Pos{Sym: 0, SC: ctrlSCs[0]} // start marker
	for i, v := range intervals {
		idx += v + 1
		dst[i+1] = Pos{Sym: idx / len(ctrlSCs), SC: ctrlSCs[idx%len(ctrlSCs)]}
	}
	return dst, nil
}

// InsertSilencesInto is the power controller of Fig. 8: it zeroes the grid
// entries at the given positions (a silence symbol is a data symbol
// transmitted with zero power, implemented by feeding 0 into the IFFT) and
// returns the erasure mask in the [symbol][subcarrier] layout the decoder
// and diagnostics consume, reusing mask (reshaped to the grid's symbol
// count) as its storage.
func InsertSilencesInto(mask [][]bool, grid *ofdm.Grid, positions []Pos) ([][]bool, error) {
	mask = GrowMask(mask, grid.NumSymbols())
	for _, p := range positions {
		if err := grid.Set(p.Sym, p.SC, 0); err != nil {
			return nil, fmt.Errorf("cos: silence at %+v: %w", p, err)
		}
		mask[p.Sym][p.SC] = true
	}
	return mask, nil
}

// ExtractIntervalsInto inverts LayoutInto: given the detected silence mask
// over the control subcarriers (mask[s][d] true means subcarrier d of
// symbol s was detected silent), it walks the traversal, treats the first
// silence as the start marker, and writes the gaps between consecutive
// silences into dst. The result is dst resliced to the interval count, so
// a silence-free mask yields nil when dst is nil and an empty slice
// otherwise.
func ExtractIntervalsInto(dst []int, mask [][]bool, ctrlSCs []int) ([]int, error) {
	if err := validateCtrlSCs(ctrlSCs); err != nil {
		return nil, err
	}
	intervals := dst[:0]
	started := false
	gap := 0
	for s := range mask {
		if len(mask[s]) != ofdm.NumData {
			return nil, fmt.Errorf("cos: mask row %d has %d entries, want %d", s, len(mask[s]), ofdm.NumData)
		}
		for _, sc := range ctrlSCs {
			silent := mask[s][sc]
			if !started {
				if silent {
					started = true
					gap = 0
				}
				continue
			}
			if silent {
				intervals = append(intervals, gap)
				gap = 0
			} else {
				gap++
			}
		}
	}
	return intervals, nil
}

// DetectMaskInto scans the control subcarriers of every payload symbol and
// returns the detected silence mask ([symbol][48]; non-control subcarriers
// are always false), reusing mask as its storage. Thresholds live on the
// stack, so a warm mask makes detection allocation-free.
func (d Detector) DetectMaskInto(mask [][]bool, fe *phy.FrontEnd, ctrlSCs []int) ([][]bool, error) {
	if err := validateCtrlSCs(ctrlSCs); err != nil {
		return nil, err
	}
	var ths [ofdm.NumData]float64
	for i, sc := range ctrlSCs {
		th, err := d.Threshold(fe, sc)
		if err != nil {
			return nil, err
		}
		ths[i] = th
	}
	mask = GrowMask(mask, fe.NumSymbols())
	for s := 0; s < fe.NumSymbols(); s++ {
		for i, sc := range ctrlSCs {
			y, err := fe.Bins[s].DataValue(sc)
			if err != nil {
				return nil, err
			}
			if dsp.MagSq(y) < ths[i] {
				mask[s][sc] = true
			}
		}
	}
	return mask, nil
}

// FrameControlInto wraps a control payload with its length and CRC,
// writing the frame into dst:
//
//	[8-bit length][payload bits][8-bit CRC over length+payload]
//
// The result's length is a multiple of nothing in particular; callers pad
// to the interval codec's k with PadToIntervalInto.
func FrameControlInto(dst, payload []byte) ([]byte, error) {
	if len(payload) > MaxFramedPayloadBits {
		return nil, fmt.Errorf("cos: control payload %d bits exceeds the %d-bit framing limit", len(payload), MaxFramedPayloadBits)
	}
	for i, b := range payload {
		if b > 1 {
			return nil, fmt.Errorf("cos: payload element %d = %d is not a bit", i, b)
		}
	}
	n := 8 + len(payload) + 8
	if cap(dst) < n {
		dst = make([]byte, n)
	}
	dst = dst[:n]
	for i := 0; i < 8; i++ {
		dst[i] = byte((len(payload) >> (7 - i)) & 1)
	}
	copy(dst[8:], payload)
	crc := crc8Bits(dst[:8+len(payload)])
	for i := 0; i < 8; i++ {
		dst[8+len(payload)+i] = (crc >> (7 - i)) & 1
	}
	return dst, nil
}

// PadToIntervalInto pads a framed bit string with zero bits to a multiple
// of k in dst so it fits the interval codec. The length header makes the
// padding self-delimiting.
func PadToIntervalInto(dst, bits []byte, k int) ([]byte, error) {
	if k < 1 {
		return nil, fmt.Errorf("cos: k = %d", k)
	}
	n := len(bits)
	if k > 1 && n%k != 0 {
		n += k - n%k
	}
	if cap(dst) < n {
		dst = make([]byte, n)
	}
	dst = dst[:n]
	copy(dst, bits)
	for i := len(bits); i < n; i++ {
		dst[i] = 0
	}
	return dst, nil
}
