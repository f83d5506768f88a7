package channel

import (
	"fmt"
	"math/rand"
	"strings"
)

// Position identifies one of the canonical receiver placements of the
// paper's measurement campaign (Sec. II-D). Each position is a distinct
// multipath geometry, i.e. a distinct degree of frequency selectivity.
type Position int

// The three measurement positions of Figs. 5-7 plus a flat reference.
const (
	PositionA Position = iota + 1
	PositionB
	PositionC
	// PositionFlat is a single-tap (frequency-flat) channel used as an
	// experimental control; the paper's phenomena should vanish on it.
	PositionFlat
)

// String returns the paper's name for the position.
func (p Position) String() string {
	switch p {
	case PositionA:
		return "Position A"
	case PositionB:
		return "Position B"
	case PositionC:
		return "Position C"
	case PositionFlat:
		return "Flat"
	default:
		return fmt.Sprintf("Position(%d)", int(p))
	}
}

// Name returns the position's canonical short spelling — "A", "B", "C"
// or "flat" — the form ParsePosition reads back.
func (p Position) Name() string {
	switch p {
	case PositionA:
		return "A"
	case PositionB:
		return "B"
	case PositionC:
		return "C"
	case PositionFlat:
		return "flat"
	default:
		return p.String()
	}
}

// ParsePosition maps a case-insensitive short name ("A", "b", "FLAT", ...)
// to its position.
func ParsePosition(name string) (Position, error) {
	switch strings.ToUpper(name) {
	case "A":
		return PositionA, nil
	case "B":
		return PositionB, nil
	case "C":
		return PositionC, nil
	case "FLAT":
		return PositionFlat, nil
	default:
		return 0, fmt.Errorf("channel: unknown position %q (want A, B, C or flat)", name)
	}
}

// Config returns the TDL configuration of the position. Positions differ in
// multipath richness: A is the richest (strongest frequency selectivity),
// C the mildest. mobile adds the walking-speed Doppler of the paper's
// mobile traces.
func (p Position) Config(mobile bool) (TDLConfig, error) {
	var cfg TDLConfig
	switch p {
	case PositionA:
		cfg = TDLConfig{NumTaps: 8, DelaySpread: 3.0}
	case PositionB:
		cfg = TDLConfig{NumTaps: 6, DelaySpread: 2.0}
	case PositionC:
		cfg = TDLConfig{NumTaps: 4, DelaySpread: 1.2}
	case PositionFlat:
		cfg = TDLConfig{NumTaps: 1, DelaySpread: 0}
	default:
		return cfg, fmt.Errorf("channel: unknown position %d", int(p))
	}
	if mobile {
		cfg.DopplerHz = EffectiveIndoorDopplerHz
	}
	return cfg, nil
}

// seed returns the canonical per-position RNG seed, so "Position A" is the
// same channel realization in every experiment, mirroring a fixed physical
// placement.
func (p Position) seed() int64 { return 0xC05 + int64(p)*1000 }

// New draws the canonical channel realization for the position.
func (p Position) New(mobile bool) (*TDL, error) {
	cfg, err := p.Config(mobile)
	if err != nil {
		return nil, err
	}
	return NewTDL(cfg, rand.New(rand.NewSource(p.seed())))
}

// NewVariant draws an independent realization of the position's geometry
// using the provided seed offset; used when an experiment needs many
// channels of the same selectivity class.
func (p Position) NewVariant(mobile bool, variant int64) (*TDL, error) {
	cfg, err := p.Config(mobile)
	if err != nil {
		return nil, err
	}
	return NewTDL(cfg, rand.New(rand.NewSource(p.seed()^(variant*0x9E3779B9))))
}

// Positions lists the three paper positions.
func Positions() []Position { return []Position{PositionA, PositionB, PositionC} }
