package coding

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// This file keeps the source-state Viterbi decoder that the butterfly
// decoder in viterbi.go replaced, unchanged apart from its name and its
// returning the final path metrics. It is the oracle the differential test
// and FuzzViterbiMatchesReference hold the fast decoder to: both must emit
// the same bits and bit-identical final path metrics on every finite input,
// ties included.

// refBranch describes one trellis transition.
type refBranch struct {
	next uint8 // next state
	outA int8  // +1/-1 antipodal form of generator-A output
	outB int8  // +1/-1 antipodal form of generator-B output
}

// refTrellis holds the two outgoing branches (input bit 0 and 1) per state.
var refTrellis [NumStates][2]refBranch

func init() {
	for s := 0; s < NumStates; s++ {
		for b := uint(0); b <= 1; b++ {
			window := b<<6 | uint(s)
			a := parity(window & GeneratorA)
			bb := parity(window & GeneratorB)
			refTrellis[s][b] = refBranch{
				next: uint8(window >> 1),
				outA: int8(2*int(a) - 1),
				outB: int8(2*int(bb) - 1),
			}
		}
	}
}

// refDecision records the transition that won a trellis state at one step:
// bits 0-5 hold the predecessor state, bit 6 the input bit.
type refDecision uint8

// refDecode is the reference decoder. It returns the decoded bits and the
// path metrics of all states after the last step.
func refDecode(terminated bool, metrics []float64) ([]byte, []float64, error) {
	if len(metrics)%2 != 0 {
		return nil, nil, fmt.Errorf("coding: metric count %d is odd; rate-1/2 code needs pairs", len(metrics))
	}
	steps := len(metrics) / 2
	negInf := math.Inf(-1)
	cur := make([]float64, NumStates)
	next := make([]float64, NumStates)
	cur[0] = 0 // encoder starts in state 0
	for st := 1; st < NumStates; st++ {
		cur[st] = negInf
	}

	// decisions[t*NumStates + ns] records the input bit whose transition
	// won state ns at step t, together with the predecessor state.
	decisions := make([]refDecision, steps*NumStates)

	for t := 0; t < steps; t++ {
		mA := metrics[2*t]
		mB := metrics[2*t+1]
		for s := range next {
			next[s] = negInf
		}
		for s := 0; s < NumStates; s++ {
			pm := cur[s]
			if math.IsInf(pm, -1) {
				continue
			}
			for b := 0; b <= 1; b++ {
				br := refTrellis[s][b]
				m := pm + float64(br.outA)*mA + float64(br.outB)*mB
				ns := int(br.next)
				if m > next[ns] {
					next[ns] = m
					decisions[t*NumStates+ns] = refDecision(uint8(s) | uint8(b)<<6)
				}
			}
		}
		cur, next = next, cur
	}

	// Pick the terminal state.
	end := 0
	if !terminated {
		best := cur[0]
		for s := 1; s < NumStates; s++ {
			if cur[s] > best {
				best = cur[s]
				end = s
			}
		}
	}
	if math.IsInf(cur[end], -1) {
		return nil, nil, fmt.Errorf("coding: no surviving path to end state %d", end)
	}

	out := make([]byte, steps)
	state := end
	for t := steps - 1; t >= 0; t-- {
		d := decisions[t*NumStates+state]
		out[t] = byte(d >> 6)
		state = int(d & 0x3F)
	}
	return out, cur, nil
}

// decodeBoth runs the butterfly decoder (through DecodeInto with the shared
// scratch s) and the reference on the same metrics, and reports the first
// difference in error, bits or final path metrics.
func decodeBoth(s *ViterbiScratch, terminated bool, metrics []float64) error {
	got, gotErr := (&Viterbi{Terminated: terminated}).DecodeInto(s, metrics)
	want, wantPM, wantErr := refDecode(terminated, metrics)
	if (gotErr != nil) != (wantErr != nil) {
		return fmt.Errorf("error %v, reference error %v", gotErr, wantErr)
	}
	if gotErr != nil || len(metrics) == 0 {
		return nil // an empty block decodes to no bits and runs no step
	}
	if !bytes.Equal(got, want) {
		for i := range got {
			if got[i] != want[i] {
				return fmt.Errorf("bit %d of %d is %d, reference %d", i, len(got), got[i], want[i])
			}
		}
	}
	for st, pm := range s.pm {
		if math.Float64bits(pm) != math.Float64bits(wantPM[st]) {
			return fmt.Errorf("final path metric of state %d is %v, reference %v", st, pm, wantPM[st])
		}
	}
	return nil
}

// TestViterbiMatchesReference holds the butterfly decoder to the reference
// on the inputs the receiver produces — noisy codewords with random
// erasures, depunctured at every code rate — and on those it does not: raw
// Gaussian metrics that no codeword explains, hard +-1 metrics, and small
// integer metrics, where most add-compare-selects are ties. Bits and final
// path metrics must match exactly in both termination modes, with one
// scratch reused across lengths.
func TestViterbiMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var s ViterbiScratch
	var full []float64
	for trial := 0; trial < 300; trial++ {
		steps := 6 * (1 + rng.Intn(60))
		if trial%50 == 0 {
			steps = 6 * 700 // one long block per 50 trials
		}
		info := randBits(rng, steps-TailBits)
		coded, err := ConvEncode(append(info, make([]byte, TailBits)...))
		if err != nil {
			t.Fatal(err)
		}
		rate := []CodeRate{Rate1_2, Rate2_3, Rate3_4}[trial%3]
		kept, err := PunctureInto(nil, coded, rate)
		if err != nil {
			t.Fatal(err)
		}
		erasure := rng.Float64() * 0.5
		sigma := 0.2 + 1.5*rng.Float64()
		soft := make([]float64, len(kept))
		for i, b := range kept {
			switch {
			case rng.Float64() < erasure:
				soft[i] = 0
			case trial%5 == 1: // hard decisions: mostly ties
				soft[i] = float64(2*int(b) - 1)
			case trial%5 == 2: // 3-bit integers: ties and exact sums
				soft[i] = float64(rng.Intn(7) - 3)
			case trial%5 == 3: // metrics no codeword explains
				soft[i] = rng.NormFloat64()
			default:
				soft[i] = float64(2*int(b)-1) + sigma*rng.NormFloat64()
			}
		}
		if full, err = DepunctureMetricsInto(full, soft, rate); err != nil {
			t.Fatal(err)
		}
		for _, terminated := range []bool{true, false} {
			if err := decodeBoth(&s, terminated, full); err != nil {
				t.Fatalf("trial %d (rate %v, %d steps, terminated %v): %v", trial, rate, steps, terminated, err)
			}
		}
	}
}

// TestViterbiRejectsNonFiniteMetrics: a NaN or infinite metric is an error,
// never a decode, wherever it sits; so are finite metrics whose magnitudes
// sum past the float64 range, where a path metric could overflow.
func TestViterbiRejectsNonFiniteMetrics(t *testing.T) {
	dec := &Viterbi{Terminated: true}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, at := range []int{0, 7, 39} {
			metrics := make([]float64, 40)
			for i := range metrics {
				metrics[i] = 1
			}
			metrics[at] = bad
			var s ViterbiScratch
			out, err := dec.DecodeInto(&s, metrics)
			if err == nil || out != nil {
				t.Errorf("metric %d = %v decoded to %v, err %v; want an error and no bits", at, bad, out, err)
			}
		}
	}
	huge := []float64{math.MaxFloat64, -math.MaxFloat64}
	if out, err := dec.Decode(huge); err == nil || out != nil {
		t.Errorf("overflowing metrics decoded to %v, err %v; want an error and no bits", out, err)
	}
}

// FuzzViterbiMatchesReference decodes arbitrary finite metric pairs with
// both decoders. wide reads each metric from 8 bytes as a float64 (any
// finite value, subnormals and huge ones included); otherwise each byte is
// a small signed integer, so ties abound. Inputs the decoder must reject —
// non-finite metrics, or magnitudes that sum past the float64 range — must
// be rejected; every other input must give equal bits and path metrics.
func FuzzViterbiMatchesReference(f *testing.F) {
	f.Add([]byte{1, 255, 0, 3, 129, 2, 0, 0, 7, 250, 4, 4}, false, true)
	f.Add([]byte{1, 1, 1, 1, 255, 255, 255, 255}, false, false)
	one := make([]byte, 16)
	binary.LittleEndian.PutUint64(one, math.Float64bits(1.5))
	binary.LittleEndian.PutUint64(one[8:], math.Float64bits(-0.25))
	f.Add(one, true, true)
	var s ViterbiScratch
	f.Fuzz(func(t *testing.T, data []byte, wide, terminated bool) {
		var metrics []float64
		if wide {
			for ; len(data) >= 8; data = data[8:] {
				metrics = append(metrics, math.Float64frombits(binary.LittleEndian.Uint64(data)))
			}
		} else {
			for _, b := range data {
				metrics = append(metrics, float64(int8(b))/4)
			}
		}
		metrics = metrics[:len(metrics)&^1]
		total := 0.0
		for _, m := range metrics {
			total += math.Abs(m)
		}
		if !(total <= math.MaxFloat64) {
			if out, err := (&Viterbi{Terminated: terminated}).DecodeInto(&s, metrics); err == nil || out != nil {
				t.Fatalf("metrics %v decoded to %v, err %v; want a rejection", metrics, out, err)
			}
			return
		}
		if err := decodeBoth(&s, terminated, metrics); err != nil {
			t.Fatalf("metrics %v: %v", metrics, err)
		}
	})
}
