package cos

import (
	"fmt"

	icos "cos/internal/cos"
)

// StreamOutcome classifies how a SendStream transfer ended. The zero value
// is meaningless; every StreamResult carries one of the named outcomes.
type StreamOutcome int

const (
	// StreamDelivered: the receiver reassembled the full payload.
	StreamDelivered StreamOutcome = iota + 1
	// StreamStallAborted: the stream gave up after maxStreamStalls
	// consecutive budget-starved packets.
	StreamStallAborted
	// StreamFragmentLost: a fragment failed CRC validation at the receiver
	// (or the stream ran out of fragments without completing).
	StreamFragmentLost
	// StreamHeaderCorrupted: a fragment passed its CRC but its reassembly
	// header no longer continued the stream — a detection error rewrote the
	// header into a non-continuation.
	StreamHeaderCorrupted
)

// String returns the outcome's name.
func (o StreamOutcome) String() string {
	switch o {
	case StreamDelivered:
		return "delivered"
	case StreamStallAborted:
		return "stall-aborted"
	case StreamFragmentLost:
		return "fragment-lost"
	case StreamHeaderCorrupted:
		return "header-corrupted"
	default:
		return fmt.Sprintf("StreamOutcome(%d)", int(o))
	}
}

// StreamResult reports a multi-packet control stream transfer.
type StreamResult struct {
	// Outcome classifies how the transfer ended.
	Outcome StreamOutcome
	// Payload is the receiver's reassembled copy when Outcome is
	// StreamDelivered.
	Payload []byte
	// PacketsUsed counts data packets consumed (including budget-starved
	// packets that carried no fragment).
	PacketsUsed int
	// FragmentsSent and FragmentsDelivered count the stream's fragments.
	FragmentsSent, FragmentsDelivered int
}

// finish stamps the outcome.
func (r *StreamResult) finish(o StreamOutcome) *StreamResult {
	r.Outcome = o
	return r
}

// maxStreamStalls bounds how many consecutive budget-starved packets a
// stream tolerates before giving up.
const maxStreamStalls = 8

// SendStream delivers a control payload longer than one packet's budget by
// fragmenting it across consecutive data packets (each packet carries data
// plus one fragment). It requires WithControlFraming — fragments must be
// CRC-validated before reassembly. data supplies the payload reused for
// every packet.
//
// A corrupted or lost fragment aborts the stream (the result's Outcome
// says which way): CoS control messages are small state updates, and the
// caller retries whole messages.
func (l *Link) SendStream(payload, data []byte) (*StreamResult, error) {
	if !l.cfg.controlFraming {
		return nil, fmt.Errorf("cos: SendStream requires WithControlFraming: %w", ErrFramingRequired)
	}
	if len(payload) == 0 {
		return nil, fmt.Errorf("cos: empty stream payload")
	}
	l.metrics.streams.Inc()

	// Pick a fragment size from the current budget, floored so odd budgets
	// still make progress and capped to keep per-packet silence counts low.
	budget, err := l.MaxControlBits(len(data))
	if err != nil {
		return nil, err
	}
	fragBits := budget
	if fragBits > 64 {
		fragBits = 64
	}
	if fragBits < 16 {
		fragBits = 16
	}

	var fr icos.Fragmenter
	frags, err := fr.Split(payload, fragBits)
	if err != nil {
		return nil, err
	}

	res := &StreamResult{}
	var re icos.Reassembler
	stalls := 0
	for i := 0; i < len(frags); {
		budget, err := l.MaxControlBits(len(data))
		if err != nil {
			return nil, err
		}
		if budget < len(frags[i]) {
			// Budget dip: push a data-only packet and let the feedback
			// loop recover.
			if _, err := l.Send(data, nil); err != nil {
				return nil, err
			}
			res.PacketsUsed++
			l.metrics.streamStalledPkts.Inc()
			stalls++
			if stalls >= maxStreamStalls {
				l.metrics.streamStallAborts.Inc()
				return res.finish(StreamStallAborted), nil
			}
			continue
		}
		stalls = 0
		ex, err := l.Send(data, frags[i])
		if err != nil {
			return nil, err
		}
		res.PacketsUsed++
		res.FragmentsSent++
		l.metrics.fragmentsSent.Inc()
		if !ex.ControlVerified {
			l.metrics.streamFragAborts.Inc()
			return res.finish(StreamFragmentLost), nil // fragment lost: abort the stream
		}
		res.FragmentsDelivered++
		l.metrics.fragmentsDelivered.Inc()
		msg, done, err := re.Push(ex.ControlPayload)
		if err != nil {
			l.metrics.streamFragAborts.Inc()
			// Header corrupted into a non-continuation.
			return res.finish(StreamHeaderCorrupted), nil
		}
		if done {
			res.Payload = msg
			l.metrics.streamsDelivered.Inc()
			return res.finish(StreamDelivered), nil
		}
		i++
	}
	l.metrics.streamFragAborts.Inc()
	return res.finish(StreamFragmentLost), nil
}
