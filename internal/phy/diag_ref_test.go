package phy

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"cos/internal/bits"
	"cos/internal/channel"
	"cos/internal/dsp"
	"cos/internal/modulation"
	"cos/internal/ofdm"
)

// diagnoseRef is the reference Diagnose: it hard-demaps every point to bit
// slices, collects each subcarrier's observations and computes EVM and the
// mean error vector from them afterwards. Diagnose must match it field for
// field, float bits included.
func diagnoseRef(tx *TxPacket, fe *FrontEnd, erased [][]bool, hardCoded []byte) (*Diagnostics, error) {
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
				for i := 0; i < nbpsc; i++ {
					if hardCoded[base+i] != tx.CodedBits[base+i] {
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
		evm, err := evmRef(m.Modulation, perSC[sc].rx, perSC[sc].ideal)
		if err != nil {
			return nil, err
		}
		d.EVM[sc] = evm
		mags, err := errorVectorMagnitudesRef(perSC[sc].rx, perSC[sc].ideal)
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

// evmRef computes the error vector magnitude of Eq. (1) for one subcarrier:
//
//	EVM = sqrt( mean |r_i - s_i|^2 / mean |s_m|^2 )
//
// where received/ideal are the per-symbol observations of that subcarrier
// and the denominator averages over the scheme's constellation points.
func evmRef(s modulation.Scheme, received, ideal []complex128) (float64, error) {
	if len(received) != len(ideal) {
		return 0, fmt.Errorf("received %d and ideal %d lengths differ", len(received), len(ideal))
	}
	if len(received) == 0 {
		return 0, fmt.Errorf("EVM of zero symbols")
	}
	constPts := s.Constellation()
	if constPts == nil {
		return 0, fmt.Errorf("invalid scheme %d", int(s))
	}
	var num float64
	for i := range received {
		num += dsp.MagSq(received[i] - ideal[i])
	}
	num /= float64(len(received))
	den := dsp.Power(constPts)
	return math.Sqrt(num / den), nil
}

// errorVectorMagnitudesRef returns |r_i - s_i| per symbol: the |d_j|
// entries of the vector D(t) used by Eq. (2).
func errorVectorMagnitudesRef(received, ideal []complex128) ([]float64, error) {
	if len(received) != len(ideal) {
		return nil, fmt.Errorf("received %d and ideal %d lengths differ", len(received), len(ideal))
	}
	out := make([]float64, len(received))
	for i := range received {
		out[i] = dsp.Abs(received[i] - ideal[i])
	}
	return out, nil
}

// evmTestSchemes are the four 802.11a constellations.
var evmTestSchemes = []modulation.Scheme{modulation.BPSK, modulation.QPSK, modulation.QAM16, modulation.QAM64}

// randomPoints maps n random symbols of scheme s.
func randomPoints(t *testing.T, rng *rand.Rand, s modulation.Scheme, n int) []complex128 {
	t.Helper()
	in := make([]byte, s.BitsPerSymbol()*n)
	for i := range in {
		in[i] = byte(rng.Intn(2))
	}
	pts, err := s.MapBitsInto(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	return pts
}

func TestEVMZeroForPerfectReception(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for _, s := range evmTestSchemes {
		pts := randomPoints(t, rng, s, 40)
		evm, err := evmRef(s, pts, pts)
		if err != nil {
			t.Fatal(err)
		}
		if evm != 0 {
			t.Errorf("%v: EVM of perfect reception = %v", s, evm)
		}
	}
}

func TestEVMKnownValue(t *testing.T) {
	// A fixed error vector of magnitude e on every symbol of a unit-power
	// constellation gives EVM = e.
	ideal := []complex128{1, -1, 1i, -1i}
	received := make([]complex128, len(ideal))
	const e = 0.25
	for i, p := range ideal {
		received[i] = p + complex(e, 0)
	}
	evm, err := evmRef(modulation.QPSK, received, ideal)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(evm-e) > 1e-12 {
		t.Errorf("EVM = %v, want %v", evm, e)
	}
}

func TestEVMMatchesNoiseLevel(t *testing.T) {
	// With additive complex Gaussian noise of variance N0 on a unit-power
	// constellation, EVM converges to sqrt(N0).
	rng := rand.New(rand.NewSource(52))
	const n0 = 0.04
	sigma := math.Sqrt(n0 / 2)
	pts := randomPoints(t, rng, modulation.QAM16, 20000)
	rx := make([]complex128, len(pts))
	for i, p := range pts {
		rx[i] = p + complex(sigma*rng.NormFloat64(), sigma*rng.NormFloat64())
	}
	evm, err := evmRef(modulation.QAM16, rx, pts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(evm-math.Sqrt(n0)) > 0.01 {
		t.Errorf("EVM = %v, want ~%v", evm, math.Sqrt(n0))
	}
}

func TestEVMErrors(t *testing.T) {
	if _, err := evmRef(modulation.QPSK, []complex128{1}, []complex128{1, 2}); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := evmRef(modulation.QPSK, nil, nil); err == nil {
		t.Error("empty input should error")
	}
	if _, err := evmRef(modulation.Scheme(0), []complex128{1}, []complex128{1}); err == nil {
		t.Error("invalid scheme should error")
	}
}

func TestErrorVectorMagnitudes(t *testing.T) {
	got, err := errorVectorMagnitudesRef([]complex128{3 + 4i, 1}, []complex128{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got[0]-5) > 1e-12 || got[1] != 0 {
		t.Errorf("magnitudes = %v, want [5 0]", got)
	}
	if _, err := errorVectorMagnitudesRef([]complex128{1}, nil); err == nil {
		t.Error("length mismatch should error")
	}
}

// diagDiff describes the first field where a and b differ, comparing
// floats by their bits; "" means identical.
func diagDiff(a, b *Diagnostics) string {
	switch {
	case a.DecoderInputBitErrors != b.DecoderInputBitErrors || a.DecoderInputBits != b.DecoderInputBits:
		return fmt.Sprintf("decoder input %d/%d vs %d/%d", a.DecoderInputBitErrors, a.DecoderInputBits, b.DecoderInputBitErrors, b.DecoderInputBits)
	case !reflect.DeepEqual(a.SymbolErrors, b.SymbolErrors):
		return "SymbolErrors differ"
	case a.SubcarrierErrorCounts != b.SubcarrierErrorCounts:
		return fmt.Sprintf("SubcarrierErrorCounts %v vs %v", a.SubcarrierErrorCounts, b.SubcarrierErrorCounts)
	case a.SymbolsPerSubcarrier != b.SymbolsPerSubcarrier:
		return fmt.Sprintf("SymbolsPerSubcarrier %v vs %v", a.SymbolsPerSubcarrier, b.SymbolsPerSubcarrier)
	}
	for sc := 0; sc < ofdm.NumData; sc++ {
		if math.Float64bits(a.EVM[sc]) != math.Float64bits(b.EVM[sc]) {
			return fmt.Sprintf("EVM[%d] %v vs %v", sc, a.EVM[sc], b.EVM[sc])
		}
		if math.Float64bits(a.ErrorVectors[sc]) != math.Float64bits(b.ErrorVectors[sc]) {
			return fmt.Sprintf("ErrorVectors[%d] %v vs %v", sc, a.ErrorVectors[sc], b.ErrorVectors[sc])
		}
	}
	return ""
}

// diagCase is one received packet to diagnose.
type diagCase struct {
	tx  *TxPacket
	fe  *FrontEnd
	cfg DecodeConfig
}

// newDiagCase sends a random psduLen-byte PSDU in mode m over ch at snrDB.
// silence(s, d), if non-nil, reports the grid points to zero before
// transmission.
func newDiagCase(t testing.TB, rng *rand.Rand, m Mode, ch *channel.TDL, snrDB float64, psduLen int, silence func(s, d int) bool) diagCase {
	t.Helper()
	psdu := randPSDU(rng, psduLen)
	tx, err := BuildPacket(TxConfig{Mode: m}, psdu)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < tx.NumSymbols() && silence != nil; s++ {
		for d := 0; d < ofdm.NumData; d++ {
			if silence(s, d) {
				if err := tx.Grid.Set(s, d, 0); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	samples, err := tx.Samples()
	if err != nil {
		t.Fatal(err)
	}
	nv, err := NoiseVarForActualSNR(ch.FrequencyResponse(0), snrDB)
	if err != nil {
		t.Fatal(err)
	}
	fe, err := RunFrontEnd(ch.Apply(samples, 0, nv, rng))
	if err != nil {
		t.Fatal(err)
	}
	return diagCase{tx: tx, fe: fe, cfg: DecodeConfig{Mode: m, PSDULen: len(psdu)}}
}

// check diagnoses c with and without hard decisions and requires Diagnose
// to equal diagnoseRef exactly.
func (c diagCase) check(t *testing.T, name string, erased [][]bool) {
	t.Helper()
	cfg := c.cfg
	cfg.Erased = erased
	hard, err := c.fe.DemapInto(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, hc := range [][]byte{nil, hard} {
		want, err := diagnoseRef(c.tx, c.fe, erased, hc)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Diagnose(c.tx, c.fe, erased, hc)
		if err != nil {
			t.Fatal(err)
		}
		if diff := diagDiff(got, want); diff != "" {
			t.Errorf("%s (erased %v, hardCoded %v): %s", name, erased != nil, hc != nil, diff)
		}
	}
}

// TestDiagnoseMatchesReference: the running-sum, index-comparing Diagnose
// reproduces the reference's every field, float bits included, across all
// four constellations at random noise levels on a frequency-selective
// channel, with and without an erasure mask and decoder-input bits.
func TestDiagnoseMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3101))
	ch, err := channel.PositionA.New(false)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range Modes() {
		for trial := 0; trial < 4; trial++ {
			snr := -2 + 32*rng.Float64()
			psduLen := 1 + rng.Intn(600)
			name := fmt.Sprintf("%v at %.1f dB", m, snr)
			newDiagCase(t, rng, m, ch, snr, psduLen, nil).check(t, name, nil)

			// Erased points are silenced at the transmitter, as the Link does.
			erased := randomMask(rng, m.SymbolsForPSDU(psduLen))
			c := newDiagCase(t, rng, m, ch, snr, psduLen, func(s, d int) bool { return erased[s][d] })
			c.check(t, name+" with erasures", erased)
		}
	}
}

// randomMask returns an nSym-symbol erasure mask marking about one point
// in eight.
func randomMask(rng *rand.Rand, nSym int) [][]bool {
	mask := make([][]bool, nSym)
	for s := range mask {
		mask[s] = make([]bool, ofdm.NumData)
		for d := range mask[s] {
			mask[s][d] = rng.Intn(8) == 0
		}
	}
	return mask
}

// TestDiagnoseMatchesReferenceEdgeCases: silenced points that are not
// erased (a Link probe's missed detections: the transmitted point is 0, a
// tie on every axis) and a dead subcarrier (|H|^2 < 1e-12, equalized to 0)
// diagnose exactly as in the reference.
func TestDiagnoseMatchesReferenceEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(3102))
	ch, err := channel.PositionB.New(false)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range Modes() {
		silenced := func(s, d int) bool { return d == 5 || d == 31 || (s+d)%11 == 0 }
		c := newDiagCase(t, rng, m, ch, 18, 300, silenced)
		c.check(t, fmt.Sprintf("%v silenced, not erased", m), nil)
		erased := randomMask(rng, c.tx.NumSymbols())
		for s := range erased {
			erased[s][5] = true // detected; 31 and the diagonal are missed
		}
		c.check(t, fmt.Sprintf("%v silenced, partly erased", m), erased)

		c = newDiagCase(t, rng, m, ch, 25, 300, nil)
		for _, d := range []int{0, 17, 47} {
			k, _ := ofdm.DataIndex(d)
			bin, _ := ofdm.Bin(k)
			c.fe.ChannelEst[bin] = complex(1e-7, 0)
		}
		c.check(t, fmt.Sprintf("%v dead subcarriers", m), nil)
	}
}

// diagnoseAllocs is what one Diagnose allocates: the Diagnostics itself,
// the SymbolErrors row headers and the flat backing they slice.
const diagnoseAllocs = 3

// TestDiagnoseAllocatesOnlyItsResult pins Diagnose's allocations to its
// result: equalization, hard decisions and the EVM sums use no heap.
func TestDiagnoseAllocatesOnlyItsResult(t *testing.T) {
	rng := rand.New(rand.NewSource(3103))
	ch, err := channel.PositionA.New(false)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := ModeByRate(24)
	c := newDiagCase(t, rng, m, ch, 15, 1024, nil)
	hard, err := c.fe.DemapInto(nil, c.cfg)
	if err != nil {
		t.Fatal(err)
	}
	erased := randomMask(rng, c.tx.NumSymbols())
	for _, tc := range []struct {
		erased [][]bool
		hard   []byte
	}{{nil, nil}, {nil, hard}, {erased, hard}} {
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := Diagnose(c.tx, c.fe, tc.erased, tc.hard); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != diagnoseAllocs {
			t.Errorf("Diagnose (erased %v, hardCoded %v) allocates %v times per call, want %d", tc.erased != nil, tc.hard != nil, allocs, diagnoseAllocs)
		}
	}
}

// BenchmarkDiagnose diagnoses one 1024-byte 24 Mb/s packet with its
// decoder-input bits, as each Fig. 3 packet does.
func BenchmarkDiagnose(b *testing.B) {
	rng := rand.New(rand.NewSource(3104))
	ch, err := channel.PositionA.New(false)
	if err != nil {
		b.Fatal(err)
	}
	m, _ := ModeByRate(24)
	tx, err := BuildPacket(TxConfig{Mode: m}, randPSDU(rng, 1024))
	if err != nil {
		b.Fatal(err)
	}
	samples, err := tx.Samples()
	if err != nil {
		b.Fatal(err)
	}
	nv, err := NoiseVarForActualSNR(ch.FrequencyResponse(0), 15)
	if err != nil {
		b.Fatal(err)
	}
	fe, err := RunFrontEnd(ch.Apply(samples, 0, nv, rng))
	if err != nil {
		b.Fatal(err)
	}
	dec, err := fe.Decode(DecodeConfig{Mode: m, PSDULen: 1024})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if diagSink, err = Diagnose(tx, fe, nil, dec.HardCodedBits); err != nil {
			b.Fatal(err)
		}
	}
}

// diagSink keeps BenchmarkDiagnose's result live.
var diagSink *Diagnostics
