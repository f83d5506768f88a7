package phy

import (
	"fmt"

	"cos/internal/coding"
	"cos/internal/modulation"
	"cos/internal/obs"
	"cos/internal/ofdm"
)

// Transmit-chain metrics: stage timings for the two TX stages (bit
// processing up to the frequency grid, and OFDM modulation to samples).
var (
	mTxPackets = obs.Default().Counter("phy_tx_packets_total",
		"Packets built by the transmit chain.")
	mTxBuildSeconds = obs.Default().Histogram("phy_tx_build_seconds",
		"BuildPacket latency: scramble, encode, puncture, interleave, map.", nil)
	mTxModulateSeconds = obs.Default().Histogram("phy_tx_modulate_seconds",
		"Samples() latency: OFDM modulation of the grid plus preamble.", nil)
)

// serviceBits is the length of the 802.11a SERVICE field (16 zero bits; the
// first 7 synchronize the descrambler).
const serviceBits = 16

// DefaultScramblerSeed is the scrambler initial state used when a TxConfig
// does not specify one.
const DefaultScramblerSeed = 0x5D

// TxConfig configures a transmission.
type TxConfig struct {
	// Mode is the 802.11a transmission mode.
	Mode Mode
	// ScramblerSeed is the 7-bit scrambler initial state; zero selects
	// DefaultScramblerSeed. Both ends of a link must agree (the standard
	// carries the seed in the SERVICE field; we fix it per link).
	ScramblerSeed byte
}

func (c TxConfig) seed() byte {
	if c.ScramblerSeed == 0 {
		return DefaultScramblerSeed
	}
	return c.ScramblerSeed
}

// Validate reports configuration errors.
func (c TxConfig) Validate() error {
	if !c.Mode.Valid() {
		return fmt.Errorf("phy: invalid mode %+v", c.Mode)
	}
	return nil
}

// TxPacket is a fully built transmission, exposed at the grid stage so the
// CoS power controller can erase symbols before OFDM modulation.
type TxPacket struct {
	// Config echoes the transmit configuration.
	Config TxConfig
	// PSDU is the MAC payload carried by the packet.
	PSDU []byte
	// Grid holds the frequency-domain data symbols. Mutating it (e.g.
	// zeroing elements to create silence symbols) affects Samples().
	Grid *ofdm.Grid
	// CodedBits are the interleaved, punctured coded bits in transmission
	// order — the ground truth for decoder-input BER measurements.
	CodedBits []byte
	// ScrambledBits are the scrambled data bits fed to the encoder
	// (SERVICE + PSDU + tail + pad).
	ScrambledBits []byte
}

// NumSymbols returns the number of payload OFDM symbols.
func (p *TxPacket) NumSymbols() int { return p.Grid.NumSymbols() }

// BuildPacket is BuildPacketInto with fresh storage.
func BuildPacket(cfg TxConfig, psdu []byte) (*TxPacket, error) {
	return BuildPacketInto(nil, cfg, psdu)
}

// Samples is SamplesInto with a fresh destination.
func (p *TxPacket) Samples() ([]complex128, error) {
	return p.SamplesInto(nil)
}

// mapperFor returns the interleaver for a mode (shared by RX). Interleavers
// are immutable after construction, so the process-wide cache is safe to
// share.
func mapperFor(m Mode) (*coding.Interleaver, modulation.Scheme, error) {
	il, err := coding.CachedInterleaver(m.NCBPS(), m.NBPSC())
	if err != nil {
		return nil, 0, err
	}
	return il, m.Modulation, nil
}
