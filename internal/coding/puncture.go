package coding

import "fmt"

// CodeRate identifies one of the 802.11a convolutional code rates.
type CodeRate int

// Code rates defined by 802.11a. Rates 2/3 and 3/4 are obtained from the
// mother rate-1/2 code by puncturing (17.3.5.6).
const (
	Rate1_2 CodeRate = iota + 1
	Rate2_3
	Rate3_4
)

// String returns the conventional fraction form, e.g. "1/2".
func (r CodeRate) String() string {
	switch r {
	case Rate1_2:
		return "1/2"
	case Rate2_3:
		return "2/3"
	case Rate3_4:
		return "3/4"
	default:
		return fmt.Sprintf("CodeRate(%d)", int(r))
	}
}

// Fraction returns the numerator and denominator of the code rate.
func (r CodeRate) Fraction() (num, den int) {
	switch r {
	case Rate2_3:
		return 2, 3
	case Rate3_4:
		return 3, 4
	default:
		return 1, 2
	}
}

// puncturePattern returns the keep/drop mask applied periodically over the
// A/B-interleaved rate-1/2 encoder output.
//
//	2/3: (A1 B1 A2 B2)       -> A1 B1 A2         mask 1110
//	3/4: (A1 B1 A2 B2 A3 B3) -> A1 B1 A2 B3      mask 111001
func (r CodeRate) puncturePattern() []bool {
	switch r {
	case Rate2_3:
		return []bool{true, true, true, false}
	case Rate3_4:
		return []bool{true, true, true, false, false, true}
	default:
		return []bool{true, true}
	}
}

// Valid reports whether r is one of the defined code rates.
func (r CodeRate) Valid() bool {
	return r == Rate1_2 || r == Rate2_3 || r == Rate3_4
}
