package coding

import (
	"fmt"
	"math"
)

// Viterbi decodes the 802.11a rate-1/2 convolutional code from soft bit
// metrics, implementing the paper's erasure Viterbi decoding (EVD).
//
// The input is one metric per mother-code bit (so len(metrics) must be even:
// A and B generator outputs alternate). Each metric is an LLR-style value:
// positive favors bit 1, negative favors bit 0, and exactly zero means the
// bit is erased (silence symbol or punctured position) and contributes
// nothing to any path — precisely Eq. (7) of the paper.
//
// The decoder maximizes sum over coded bits of metric * (2*bit - 1) with a
// full traceback over the whole block.
type Viterbi struct {
	// Terminated selects terminated-trellis decoding: the encoder is assumed
	// to have been flushed with TailBits zeros, so the survivor ending in
	// state 0 is chosen. When false, the best-metric end state is used.
	Terminated bool
}

// butterflySigns[j] holds the antipodal generator outputs (a, b) on the
// branch from state 2j to state j. The trellis shifts the input bit into
// bit 5 and drops bit 0, so states j and j+32 share the predecessors 2j and
// 2j+1: a butterfly. Both generators tap the newest and the oldest bit, so
// flipping either one negates both outputs, and the butterfly's four
// branches carry (a, b) for 2j->j and 2j+1->j+32, (-a, -b) for the other
// two.
var butterflySigns [NumStates / 2]struct{ a, b float64 }

func init() {
	for j := range butterflySigns {
		window := uint(j) << 1 // input bit 0, predecessor 2j
		butterflySigns[j].a = float64(2*int(parity(window&GeneratorA)) - 1)
		butterflySigns[j].b = float64(2*int(parity(window&GeneratorB)) - 1)
	}
}

// ViterbiScratch holds the decoder's working storage — the survivor bits
// and the output bits — so repeated decodes reuse one arena. The zero value
// is ready to use; arrays grow on demand and are retained between calls. A
// scratch must not be shared across concurrent decodes, and the bits
// returned by DecodeInto are valid only until the next decode with the same
// scratch.
type ViterbiScratch struct {
	// pm holds every state's path metric after the last decoded step.
	pm [NumStates]float64
	// surv[t] bit j is set when state j after step t was reached from the
	// odd predecessor (j&31)<<1|1, clear for the even one. The input bit
	// is j>>5, so one bit per state is the whole survivor.
	surv []uint64
	out  []byte
}

// Decode returns the maximum-likelihood information bits for the given
// metrics. The returned slice has len(metrics)/2 bits, including any tail
// bits the encoder appended.
func (v *Viterbi) Decode(metrics []float64) ([]byte, error) {
	return v.DecodeInto(nil, metrics)
}

// DecodeInto is Decode using s as working storage; the returned bits alias
// s and are valid until the next decode with the same scratch. A nil s
// decodes into fresh storage, making DecodeInto(nil, m) identical to
// Decode(m). A NaN or infinite metric is an error, and so are finite
// metrics so large that a path metric could overflow.
func (v *Viterbi) DecodeInto(s *ViterbiScratch, metrics []float64) ([]byte, error) {
	if len(metrics)%2 != 0 {
		return nil, fmt.Errorf("coding: metric count %d is odd; rate-1/2 code needs pairs", len(metrics))
	}
	if len(metrics) == 0 {
		return nil, nil
	}
	// total bounds every path metric, which is a sum of +-m over a prefix
	// of metrics rounded in the same order. A NaN or infinite metric makes
	// it non-finite as well, so one test after the loop keeps this loop
	// and the trellis free of a per-metric branch.
	total := 0.0
	for _, m := range metrics {
		total += math.Abs(m)
	}
	if !(total <= math.MaxFloat64) {
		return nil, badMetrics(metrics)
	}
	return v.decode(s, metrics)
}

// badMetrics names the first non-finite metric, or reports that finite
// metrics are too large to sum.
func badMetrics(metrics []float64) error {
	for i, m := range metrics {
		if math.IsNaN(m) || math.IsInf(m, 0) {
			return fmt.Errorf("coding: metric %d is %v; metrics must be finite", i, m)
		}
	}
	return fmt.Errorf("coding: metric magnitudes sum past the float64 range; path metrics would overflow")
}

// decode runs the trellis as 32 add-compare-select butterflies per step,
// bit-identical to a loop over source states: each candidate adds in the
// same order, (pm +- mA) +- mB; a tie keeps the even predecessor; and an
// unreachable state needs no test, since -Inf plus a finite metric stays
// -Inf and never wins.
func (v *Viterbi) decode(s *ViterbiScratch, metrics []float64) ([]byte, error) {
	if s == nil {
		s = &ViterbiScratch{}
	}
	// steps is recomputed from len(metrics) rather than passed in so the
	// compiler can prove 2*t+1 < len(metrics) and drop the bounds checks
	// in the trellis loop.
	steps := len(metrics) / 2
	var cols [2][NumStates]float64
	cur, next := &cols[0], &cols[1]
	cur[0] = 0 // encoder starts in state 0
	for st := 1; st < NumStates; st++ {
		cur[st] = math.Inf(-1)
	}

	if cap(s.surv) < steps {
		s.surv = make([]uint64, steps)
	}
	surv := s.surv[:steps]

	for t := 0; t < steps; t++ {
		mA := metrics[2*t]
		mB := metrics[2*t+1]
		var w uint64
		for j := range butterflySigns {
			uA, uB := butterflySigns[j].a*mA, butterflySigns[j].b*mB
			p0, p1 := cur[2*j], cur[2*j+1]
			// Candidates from the even and odd predecessor into j (input
			// bit 0) and into j+32 (input bit 1).
			e0, o0 := p0+uA+uB, p1-uA-uB
			e1, o1 := p0-uA-uB, p1+uA+uB
			next[j] = max(e0, o0)
			next[j+32] = max(e1, o1)
			// The survivor bit is the sign of even minus odd: set only when
			// the odd candidate is strictly larger, as a tie gives +0.
			w |= math.Float64bits(e0-o0)>>63<<j | math.Float64bits(e1-o1)>>63<<(j+32)
		}
		surv[t] = w
		cur, next = next, cur
	}
	s.pm = *cur

	// Pick the terminal state.
	end := 0
	if !v.Terminated {
		best := cur[0]
		for s := 1; s < NumStates; s++ {
			if cur[s] > best {
				best = cur[s]
				end = s
			}
		}
	}
	if math.IsInf(cur[end], -1) {
		return nil, fmt.Errorf("coding: no surviving path to end state %d", end)
	}

	s.out = growBytes(s.out, steps)
	out := s.out
	state := uint(end)
	for t := steps - 1; t >= 0; t-- {
		out[t] = byte(state >> 5)
		state = (state&31)<<1 | uint(surv[t]>>state&1)
	}
	return out, nil
}

// HardMetrics converts hard bits into antipodal metrics of the given
// confidence (use 1.0 for unit confidence). It is a convenience for tests
// and hard-decision baselines. Erasures can be injected afterwards by
// zeroing entries.
func HardMetrics(bits []byte, confidence float64) ([]float64, error) {
	out := make([]float64, len(bits))
	for i, b := range bits {
		if b > 1 {
			return nil, fmt.Errorf("coding: element %d = %d is not a bit", i, b)
		}
		out[i] = confidence * float64(2*int(b)-1)
	}
	return out, nil
}
