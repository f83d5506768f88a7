package coding

import "fmt"

// Interleaver implements the 802.11a per-OFDM-symbol block interleaver
// (17.3.5.6). It is defined by two permutations over one OFDM symbol's worth
// of coded bits (NCBPS): the first spreads adjacent coded bits across
// non-adjacent subcarriers; the second alternates bits between more and less
// significant constellation positions.
//
// In CoS the deinterleaver is what spreads the zeroed bit metrics of a
// silence symbol across the codeword (Sec. III-E), preventing erasure bursts
// from overwhelming a local trellis region.
type Interleaver struct {
	ncbps int
	perm  []int // perm[k] = output position of input bit k
	inv   []int // inv[j]  = input position of output bit j
}

// NewInterleaver builds the interleaver for a symbol of ncbps coded bits
// carrying nbpsc bits per subcarrier. ncbps must be a positive multiple of
// both 16 and nbpsc.
func NewInterleaver(ncbps, nbpsc int) (*Interleaver, error) {
	if ncbps <= 0 || ncbps%16 != 0 {
		return nil, fmt.Errorf("coding: NCBPS %d must be a positive multiple of 16", ncbps)
	}
	if nbpsc <= 0 || ncbps%nbpsc != 0 {
		return nil, fmt.Errorf("coding: NBPSC %d must divide NCBPS %d", nbpsc, ncbps)
	}
	s := nbpsc / 2
	if s < 1 {
		s = 1
	}
	perm := make([]int, ncbps)
	inv := make([]int, ncbps)
	for k := 0; k < ncbps; k++ {
		i := (ncbps/16)*(k%16) + k/16
		j := s*(i/s) + (i+ncbps-16*i/ncbps)%s
		perm[k] = j
		inv[j] = k
	}
	return &Interleaver{ncbps: ncbps, perm: perm, inv: inv}, nil
}
