package modulation

import (
	"fmt"
	"math"
)

// NablaEVM computes the normalized EVM change of Eq. (2):
//
//	nabla = ||D(t) - D(t+tau)|| / ||D(t+tau)||
//
// where D holds the per-subcarrier error-vector magnitudes at two times.
func NablaEVM(dt, dtau []float64) (float64, error) {
	if len(dt) != len(dtau) {
		return 0, fmt.Errorf("modulation: vector lengths differ (%d vs %d)", len(dt), len(dtau))
	}
	var num, den float64
	for i := range dt {
		diff := dt[i] - dtau[i]
		num += diff * diff
		den += dtau[i] * dtau[i]
	}
	if den == 0 {
		return 0, fmt.Errorf("modulation: zero reference vector")
	}
	return math.Sqrt(num) / math.Sqrt(den), nil
}
