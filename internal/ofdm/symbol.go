package ofdm

import (
	"fmt"

	"cos/internal/dsp"
)

// Grid is a frequency-domain resource grid: one row of 48 data-subcarrier
// values per OFDM symbol. It is the unit the paper's Fig. 1(a) draws: a
// symbol is the 2-D (time slot, subcarrier) resource element, and CoS
// inserts silence by zeroing selected elements before OFDM modulation.
type Grid struct {
	symbols [][]complex128
}

// NewGrid allocates a grid of numSymbols OFDM symbols with all data
// subcarriers zero.
func NewGrid(numSymbols int) *Grid {
	rows := make([][]complex128, numSymbols)
	backing := make([]complex128, numSymbols*NumData)
	for i := range rows {
		rows[i], backing = backing[:NumData:NumData], backing[NumData:]
	}
	return &Grid{symbols: rows}
}

// NumSymbols returns the number of OFDM symbols in the grid.
func (g *Grid) NumSymbols() int { return len(g.symbols) }

// Symbol returns the 48 data-subcarrier values of OFDM symbol i. The slice
// aliases the grid; writes modify the grid (this is how the CoS power
// controller erases symbols).
func (g *Grid) Symbol(i int) ([]complex128, error) {
	if i < 0 || i >= len(g.symbols) {
		return nil, fmt.Errorf("ofdm: symbol %d out of range [0,%d)", i, len(g.symbols))
	}
	return g.symbols[i], nil
}

// At returns the value at (symbol, data subcarrier).
func (g *Grid) At(sym, sc int) (complex128, error) {
	row, err := g.Symbol(sym)
	if err != nil {
		return 0, err
	}
	if sc < 0 || sc >= NumData {
		return 0, fmt.Errorf("ofdm: data subcarrier %d out of range [0,%d)", sc, NumData)
	}
	return row[sc], nil
}

// Set writes the value at (symbol, data subcarrier).
func (g *Grid) Set(sym, sc int, v complex128) error {
	row, err := g.Symbol(sym)
	if err != nil {
		return err
	}
	if sc < 0 || sc >= NumData {
		return fmt.Errorf("ofdm: data subcarrier %d out of range [0,%d)", sc, NumData)
	}
	row[sc] = v
	return nil
}

// Resize reshapes the grid to numSymbols symbols with all data subcarriers
// zero, reusing the existing backing storage when it is large enough. It is
// the scratch-arena entry point: a transmit scratch keeps one Grid and
// Resizes it per packet instead of allocating a fresh one.
func (g *Grid) Resize(numSymbols int) {
	if numSymbols <= cap(g.symbols) {
		g.symbols = g.symbols[:numSymbols]
		for i := range g.symbols {
			row := g.symbols[i]
			for j := range row {
				row[j] = 0
			}
		}
		return
	}
	*g = *NewGrid(numSymbols)
}

// Clone returns a deep copy of the grid.
func (g *Grid) Clone() *Grid {
	out := NewGrid(len(g.symbols))
	for i, row := range g.symbols {
		copy(out.symbols[i], row)
	}
	return out
}

// Modulate converts the grid into baseband time-domain samples. Each OFDM
// symbol n (firstSymbolIndex+i for row i, needed for pilot polarity) is
// assembled into 64 bins (48 data + 4 polarized pilots + zero guards),
// IFFT'd, and prefixed with the 16-sample cyclic prefix.
func (g *Grid) Modulate(firstSymbolIndex int) ([]complex128, error) {
	return g.ModulateInto(firstSymbolIndex, nil)
}

// ModulateInto is Modulate writing into dst, which is grown (reusing its
// capacity) to exactly NumSymbols*SymbolLen samples. A stack-resident bin
// buffer is reused across symbols, so a caller that recycles dst modulates
// without heap allocation.
func (g *Grid) ModulateInto(firstSymbolIndex int, dst []complex128) ([]complex128, error) {
	n := len(g.symbols) * SymbolLen
	if cap(dst) < n {
		dst = make([]complex128, n)
	}
	dst = dst[:n]
	var bins [NumSubcarriers]complex128
	for i, row := range g.symbols {
		for b := range bins {
			bins[b] = 0
		}
		for d, v := range row {
			bin, err := Bin(dataIndices[d])
			if err != nil {
				return nil, err
			}
			bins[bin] = v
		}
		for p, k := range PilotIndices {
			bin, err := Bin(k)
			if err != nil {
				return nil, err
			}
			pv, err := PilotValue(p, firstSymbolIndex+i)
			if err != nil {
				return nil, err
			}
			bins[bin] = pv
		}
		if err := dsp.IFFTInPlace(bins[:]); err != nil {
			return nil, err
		}
		off := i * SymbolLen
		copy(dst[off:off+CPLen], bins[NumSubcarriers-CPLen:])
		copy(dst[off+CPLen:off+SymbolLen], bins[:])
	}
	return dst, nil
}

// Bins holds the raw 64 frequency bins of one received OFDM symbol, before
// equalization. The CoS energy detector operates directly on these (the
// "simple FFT" of Sec. IV-C).
type Bins [NumSubcarriers]complex128

// DataValue returns the raw bin of data subcarrier d (0..47).
func (b *Bins) DataValue(d int) (complex128, error) {
	if d < 0 || d >= NumData {
		return 0, fmt.Errorf("ofdm: data subcarrier %d out of range", d)
	}
	bin, err := Bin(dataIndices[d])
	if err != nil {
		return 0, err
	}
	return b[bin], nil
}

// PilotObservation returns the raw bin of pilot p (0..3).
func (b *Bins) PilotObservation(p int) (complex128, error) {
	if p < 0 || p >= NumPilots {
		return 0, fmt.Errorf("ofdm: pilot %d out of range", p)
	}
	bin, err := Bin(PilotIndices[p])
	if err != nil {
		return 0, err
	}
	return b[bin], nil
}

// DemodulateInto splits samples into OFDM symbols, strips each cyclic
// prefix, and FFTs the remaining 64 samples into dst, which is grown
// (reusing its capacity) to one Bins per OFDM symbol. len(samples) must be
// a multiple of SymbolLen.
func DemodulateInto(dst []Bins, samples []complex128) ([]Bins, error) {
	if len(samples)%SymbolLen != 0 {
		return nil, fmt.Errorf("ofdm: sample count %d is not a multiple of %d", len(samples), SymbolLen)
	}
	n := len(samples) / SymbolLen
	if cap(dst) < n {
		dst = make([]Bins, n)
	}
	dst = dst[:n]
	for i := 0; i < n; i++ {
		sym := samples[i*SymbolLen+CPLen : (i+1)*SymbolLen]
		copy(dst[i][:], sym)
		if err := dsp.FFTInPlace(dst[i][:]); err != nil {
			return nil, err
		}
	}
	return dst, nil
}
