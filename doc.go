// Package cos reproduces CoS — "Communication through Symbol Silence:
// Towards Free Control Messages in Indoor WLANs" (Feng, Liu, Zhang, Fang;
// ICDCS 2017) — as a pure-Go simulation of the full 802.11a stack the paper
// prototyped on the Sora software-defined radio.
//
// CoS piggybacks lightweight control messages on ordinary data packets at
// zero airtime cost: the transmitter silences selected data symbols (zero
// power on one subcarrier for one OFDM symbol) and encodes control bits in
// the intervals between silences; the receiver finds the silences with
// symbol-level energy detection and recovers the erased data through the
// convolutional code's unused redundancy (the "SNR gap") via erasure
// Viterbi decoding. Placing silences on weak subcarriers — whose symbols
// frequency-selective fading would have corrupted anyway — makes the
// erasures nearly free.
//
// The top-level API is Link, a simulated sender/receiver pair over an
// indoor multipath channel:
//
//	link, err := cos.NewLink(cos.WithPosition(cos.PositionB), cos.WithSNR(18))
//	if err != nil { ... }
//	ex, err := link.Send(data, controlBits)
//	// ex.DataOK, ex.ControlOK, ex.Detection, ex.MeasuredSNRdB, ...
//
// # Errors
//
// Failures are typed. Option validation surfaces *ConfigError (match with
// errors.As; Option names the offending With* option and Reason says what
// was wrong). Send and SendStream wrap sentinel errors — ErrCoSDisabled,
// ErrBudgetExceeded, ErrControlAlignment, ErrFramingRequired — so callers
// branch with errors.Is instead of string matching:
//
//	if _, err := link.Send(data, ctrl); errors.Is(err, cos.ErrBudgetExceeded) {
//		ctrl = ctrl[:0] // back off and retry data-only
//	}
//
// SendStream reports how a stream ended in StreamResult.Outcome
// (StreamDelivered, StreamStallAborted, StreamFragmentLost,
// StreamHeaderCorrupted); the boolean Delivered field is derived from it.
//
// NewLink followed by Send or SendStream is the one way into the
// pipeline; the transmitter, channel, and receiver nodes it wires
// together are internal. Every *Exchange that Send returns, and that
// WithObserver callbacks receive, is a snapshot the caller owns: Send
// allocates its slices (and its Probe) fresh, so an exchange may be
// retained or mutated without reaching link state.
//
// Lower layers live under internal/: the 802.11a PHY (internal/phy), OFDM
// waveform (internal/ofdm), channel coding with erasure Viterbi decoding
// (internal/coding), constellations and EVM (internal/modulation), the
// indoor channel simulator (internal/channel), and the CoS mechanisms
// themselves (internal/cos). The cmd/cos-figures binary and the benchmarks
// in bench_test.go regenerate every figure of the paper's evaluation; see
// DESIGN.md and EXPERIMENTS.md.
package cos
