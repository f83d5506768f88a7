package cos

import "fmt"

// Control messages longer than one packet's silence budget must span
// packets. A fragment carries an 11-bit header before its payload chunk:
//
//	[4-bit message ID][6-bit fragment index][1-bit last flag][chunk bits]
//
// Fragments ride inside the CRC framing of FrameControlInto, so corruption
// is detected per fragment; a missing or corrupted fragment aborts the whole
// message (the paper's control messages are small state updates — retrying
// the message beats partial delivery).

// fragment header geometry.
const (
	fragIDBits    = 4
	fragIdxBits   = 6
	fragHeaderLen = fragIDBits + fragIdxBits + 1
	// MaxFragments bounds a message to 64 fragments.
	MaxFragments = 1 << fragIdxBits
)

// Fragmenter splits long control payloads into self-describing fragments.
// The zero value is ready to use; message IDs cycle through 16 values so a
// reassembler can detect a new message starting.
type Fragmenter struct {
	nextID int
}

// Split chunks payload into fragments whose total size (header + chunk)
// stays within maxFragmentBits each. The fragments are bare bit slices:
// wrap each with FrameControlInto (or send through a Link built with
// WithControlFraming) for integrity.
func (f *Fragmenter) Split(payload []byte, maxFragmentBits int) ([][]byte, error) {
	for i, b := range payload {
		if b > 1 {
			return nil, fmt.Errorf("cos: payload element %d = %d is not a bit", i, b)
		}
	}
	chunkBits := maxFragmentBits - fragHeaderLen
	if chunkBits < 1 {
		return nil, fmt.Errorf("cos: fragment size %d cannot fit the %d-bit header plus payload", maxFragmentBits, fragHeaderLen)
	}
	nFrags := (len(payload) + chunkBits - 1) / chunkBits
	if nFrags == 0 {
		nFrags = 1
	}
	if nFrags > MaxFragments {
		return nil, fmt.Errorf("cos: payload needs %d fragments, limit is %d", nFrags, MaxFragments)
	}
	id := f.nextID
	f.nextID = (f.nextID + 1) & (1<<fragIDBits - 1)

	out := make([][]byte, 0, nFrags)
	for i := 0; i < nFrags; i++ {
		lo := i * chunkBits
		hi := lo + chunkBits
		if hi > len(payload) {
			hi = len(payload)
		}
		frag := make([]byte, 0, fragHeaderLen+hi-lo)
		push := func(v, n int) {
			for b := n - 1; b >= 0; b-- {
				frag = append(frag, byte((v>>b)&1))
			}
		}
		push(id, fragIDBits)
		push(i, fragIdxBits)
		last := 0
		if i == nFrags-1 {
			last = 1
		}
		push(last, 1)
		frag = append(frag, payload[lo:hi]...)
		out = append(out, frag)
	}
	return out, nil
}

// Reassembler rebuilds messages from fragments delivered in packet order.
// The zero value is ready to use.
type Reassembler struct {
	id      int
	nextIdx int
	buf     []byte
	active  bool
}

// Push consumes one received fragment. When the fragment completes a
// message, done is true and complete holds the payload. A fragment that
// does not continue the current message (wrong ID or index) aborts the
// in-progress message: if it is the first fragment of a new message it
// starts that message, otherwise it is dropped with an error.
func (r *Reassembler) Push(fragment []byte) (complete []byte, done bool, err error) {
	if len(fragment) < fragHeaderLen {
		return nil, false, fmt.Errorf("cos: fragment of %d bits is shorter than the header", len(fragment))
	}
	pop := func(off, n int) int {
		v := 0
		for i := 0; i < n; i++ {
			v = v<<1 | int(fragment[off+i]&1)
		}
		return v
	}
	id := pop(0, fragIDBits)
	idx := pop(fragIDBits, fragIdxBits)
	last := pop(fragIDBits+fragIdxBits, 1) == 1
	chunk := fragment[fragHeaderLen:]

	if idx == 0 {
		// A fresh message always starts (implicitly aborting any partial).
		r.id, r.nextIdx, r.buf, r.active = id, 0, r.buf[:0], true
	}
	if !r.active || id != r.id || idx != r.nextIdx {
		wasActive := r.active
		r.active = false
		if wasActive {
			return nil, false, fmt.Errorf("cos: fragment id=%d idx=%d does not continue message id=%d idx=%d; message aborted",
				id, idx, r.id, r.nextIdx)
		}
		return nil, false, fmt.Errorf("cos: stray fragment id=%d idx=%d with no message in progress", id, idx)
	}
	r.buf = append(r.buf, chunk...)
	r.nextIdx++
	if !last {
		return nil, false, nil
	}
	r.active = false
	out := make([]byte, len(r.buf))
	copy(out, r.buf)
	return out, true, nil
}
