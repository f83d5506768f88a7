// Package padding registers the "ofdm-padding" embedding: OFDM frame
// padding steganography after Szczypiorski & Mazurczyk's WiPad. 802.11a
// pads every packet's final OFDM symbol with throwaway bits; this scheme
// writes the control message into that pad region instead, riding the
// packet's own FEC. No silences are inserted and no energy detection runs —
// the channel cost is zero and the capacity is the pad size, but unlike
// CoS silences the bits are only recoverable when the packet itself
// decodes (they share the data packet's fate).
//
// Mechanically: the transmit chain zeroes the scrambled-domain tail and
// pad (see phy.BuildPacketInto), so the pad region of the receiver's
// descrambled DataBits is pure keystream. Embed writes ctrl XOR keystream
// into the scrambled pad — leaving the final 6 scrambled bits zero so the
// trellis stays terminated — and rebuilds the coded chain and grid;
// Extract then reads the control bits straight out of DataBits.
package padding

import (
	"fmt"

	"cos/internal/bits"
	"cos/internal/coding"
	icos "cos/internal/cos"
	"cos/internal/ofdm"
	"cos/internal/phy"
	"cos/internal/scenario"
)

// serviceBits is the 802.11a SERVICE field length (17.3.5.2); the data-bit
// layout is SERVICE + PSDU + 6 tail + pad.
const serviceBits = 16

// tailBits is the convolutional encoder flush length.
const tailBits = 6

// Name is the registered embedding name.
const Name = "ofdm-padding"

// Embedding is the OFDM-padding scheme. One instance serves one pipeline
// node and owns its scratch; not safe for concurrent use.
type Embedding struct {
	zeros       []byte
	key         []byte
	coded       []byte
	punctured   []byte
	interleaved []byte
	points      []complex128
	ctrl        []byte
}

// New builds an OFDM-padding embedding instance.
func New() *Embedding { return &Embedding{} }

// Budgeted reports false: padding spends no silence budget and needs no
// detectable subcarriers.
func (e *Embedding) Budgeted() bool { return false }

// Align returns 1: any control length fits bit-for-bit.
func (e *Embedding) Align(int) int { return 1 }

// padRegion returns the [start, end) data-bit indices available for
// control: the pad after the encoder tail, minus the final 6 bits kept
// zero (scrambled domain) for trellis termination.
func padRegion(mode phy.Mode, psduLen int) (start, end int) {
	total := mode.SymbolsForPSDU(psduLen) * mode.NDBPS()
	start = serviceBits + 8*psduLen + tailBits
	end = total - tailBits
	if end < start {
		end = start
	}
	return start, end
}

// Capacity is the pad size for this mode and PSDU length; the control
// subcarrier set and interval width are irrelevant to padding.
func (e *Embedding) Capacity(mode phy.Mode, psduLen, _, _ int) int {
	start, end := padRegion(mode, psduLen)
	return end - start
}

// Embed writes wire XOR keystream into the packet's scrambled pad region
// and rebuilds the coded bits and grid. It returns no silence mask.
func (e *Embedding) Embed(pkt *phy.TxPacket, _ []int, wire []byte, _ int) ([][]bool, int, error) {
	mode := pkt.Config.Mode
	start, end := padRegion(mode, len(pkt.PSDU))
	if len(wire) > end-start {
		return nil, 0, fmt.Errorf("ofdm-padding: %d control bits exceed the %d-bit pad", len(wire), end-start)
	}
	total := len(pkt.ScrambledBits)
	// The scrambler keystream: scramble(x) = x XOR key, so key = scramble(0).
	if cap(e.zeros) < total {
		e.zeros = make([]byte, total)
	}
	e.zeros = e.zeros[:total]
	for i := range e.zeros {
		e.zeros[i] = 0
	}
	seed := pkt.Config.ScramblerSeed
	if seed == 0 {
		seed = phy.DefaultScramblerSeed
	}
	e.key = bits.NewScrambler(seed).ScrambleInto(e.key, e.zeros)
	for i, b := range wire {
		if b > 1 {
			return nil, 0, fmt.Errorf("ofdm-padding: control byte %d at index %d is not a bit", b, i)
		}
		pkt.ScrambledBits[start+i] = b ^ e.key[start+i]
	}

	// Re-run the coded chain from the mutated scrambled bits and rewrite
	// the grid in place (mirrors phy.BuildPacketInto's post-scramble
	// stages), keeping pkt.CodedBits truthful for probe diagnostics.
	var err error
	e.coded, err = coding.ConvEncodeInto(e.coded, pkt.ScrambledBits)
	if err != nil {
		return nil, 0, err
	}
	e.punctured, err = coding.PunctureInto(e.punctured, e.coded, mode.CodeRate)
	if err != nil {
		return nil, 0, err
	}
	il, err := coding.CachedInterleaver(mode.NCBPS(), mode.NBPSC())
	if err != nil {
		return nil, 0, err
	}
	e.interleaved, err = coding.InterleaveInto(il, e.interleaved, e.punctured)
	if err != nil {
		return nil, 0, err
	}
	e.points, err = mode.Modulation.MapBitsInto(e.points, e.interleaved)
	if err != nil {
		return nil, 0, err
	}
	nSym := pkt.NumSymbols()
	if len(e.points) != nSym*ofdm.NumData {
		return nil, 0, fmt.Errorf("ofdm-padding: internal error: %d points for %d symbols", len(e.points), nSym)
	}
	for s := 0; s < nSym; s++ {
		row, err := pkt.Grid.Symbol(s)
		if err != nil {
			return nil, 0, err
		}
		copy(row, e.points[s*ofdm.NumData:(s+1)*ofdm.NumData])
	}
	copy(pkt.CodedBits, e.interleaved)
	return nil, 0, nil
}

// Mask returns nil: padding marks no erasures.
func (e *Embedding) Mask(*phy.FrontEnd, icos.Detector, []int) ([][]bool, error) {
	return nil, nil
}

// Extract reads the whole pad region out of the descrambled data bits.
// Bits past the embedded message decode as keystream garbage, exactly as
// trailing noise decodes as extra intervals for silences; callers match
// prefixes or validate framing.
func (e *Embedding) Extract(dec *phy.DecodeResult, _ [][]bool, _ []int, _ int) ([]byte, error) {
	start := serviceBits + 8*len(dec.PSDU) + tailBits
	end := len(dec.DataBits) - tailBits
	if end < start {
		end = start
	}
	n := end - start
	if cap(e.ctrl) < n {
		e.ctrl = make([]byte, n)
	}
	e.ctrl = e.ctrl[:n]
	copy(e.ctrl, dec.DataBits[start:end])
	return e.ctrl, nil
}

func init() {
	scenario.RegisterEmbedding(Name, func(params []float64) (scenario.Embedding, error) {
		if len(params) != 0 {
			return nil, fmt.Errorf("ofdm-padding: embedding takes no parameters (got %d)", len(params))
		}
		return New(), nil
	})
	scenario.Register(scenario.Scenario{
		Name:        Name,
		Description: "indoor TDL channel with WiPad OFDM-padding steganography instead of silences",
		Channel:     scenario.DefaultChannel,
		Embedding:   Name,
	})
}
