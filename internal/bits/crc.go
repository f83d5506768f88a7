package bits

import (
	"encoding/binary"
	"hash/crc32"
)

// FCSLen is the length in bytes of the 802.11 frame check sequence.
const FCSLen = 4

// CheckFCS verifies the trailing frame check sequence of frame and returns
// the payload with the FCS stripped. ok is false when the frame is shorter
// than an FCS or the checksum does not match.
func CheckFCS(frame []byte) (payload []byte, ok bool) {
	if len(frame) < FCSLen {
		return nil, false
	}
	body := frame[:len(frame)-FCSLen]
	want := binary.LittleEndian.Uint32(frame[len(frame)-FCSLen:])
	if crc32.ChecksumIEEE(body) != want {
		return nil, false
	}
	return body, true
}
