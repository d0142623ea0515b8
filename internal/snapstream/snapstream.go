// Package snapstream is the single codec and transport layer for moving
// versioned snapshot frames between deployments. One frame format — the
// CDMLCKP1 checkpoint frame introduced by the crash-durability layer —
// now carries every snapshot movement in the system: in-process publish
// hand-off, durable checkpoint files, HTTP checkpoint/restore, and
// primary→replica shipping. A Source yields frames (a deployment's
// published snapshot, a checkpoint directory, a remote primary polled
// over HTTP); a Sink consumes them (an atomic in-process swap, a durable
// file writer). Composing one Source with one Sink is a replication
// path; the torn-frame and CRC validation that hardened checkpoint
// recovery hardens every other transport for free.
//
// Frame layout (unchanged from the on-disk checkpoint format):
//
//	magic   [8]byte  "CDMLCKP1"
//	version uint64   big-endian snapshot version
//	length  uint64   big-endian payload byte count
//	payload []byte   the snapshot payload (core: "CDMLSNP2" ‖ model ‖ optimizer ‖ pipeline sections)
//	crc     uint32   big-endian IEEE CRC-32 of payload
//
// A torn transfer — crash mid-write, truncated HTTP body, bit rot —
// fails the length or CRC check and the consumer keeps its last good
// snapshot.
package snapstream

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// ckptMagic is the 8-byte frame preamble shared with the checkpoint files.
const ckptMagic = "CDMLCKP1"

// frameOverhead is the fixed byte cost around a payload: magic + version +
// length header plus the trailing CRC.
const frameOverhead = len(ckptMagic) + 8 + 8 + 4

// ErrNoFrame reports that a source holds no frame at all — an empty
// checkpoint directory on a cold start, not a failure.
var ErrNoFrame = errors.New("snapstream: no frame available")

// errTornFrame reports a frame cut short mid-write: the buffer ends before
// the header, payload, or CRC completes. Sequential readers (the ingest
// log) treat a torn frame at the tail of the active file as the crash
// point and truncate there; a torn frame anywhere else is corruption.
var errTornFrame = errors.New("snapstream: torn frame")

// Frame is one versioned, encoded snapshot. The payload is what the snapshot
// encoder produced; snapstream treats it as opaque bytes.
type Frame struct {
	// Version is the snapshot version (ticks = version-1 for a live
	// deployment). Monotonically increasing per deployment lineage.
	Version uint64
	// Payload is the encoded snapshot body.
	Payload []byte
}

// Source yields versioned snapshot frames. Latest returns the newest frame
// strictly newer than since; ok is false (with a zero Frame and nil error)
// when nothing newer exists — the polling idle case, not an error. A
// failing source returns err.
type Source interface {
	Latest(ctx context.Context, since uint64) (f Frame, ok bool, err error)
}

// Sink consumes snapshot frames. Apply either installs the frame
// atomically or rejects it leaving prior state untouched — a half-applied
// frame is never observable.
type Sink interface {
	Apply(f Frame) error
}

// EncodedLen returns the full wire length of a frame.
func EncodedLen(f Frame) int {
	return frameOverhead + len(f.Payload)
}

// AppendFrameMagic appends the wire encoding of f under a caller-chosen
// 8-byte magic. The frame layout is otherwise identical to the checkpoint
// frame; other record streams (the write-ahead ingest log) reuse the
// codec with their own preamble so files cannot masquerade across formats.
func AppendFrameMagic(dst []byte, magic string, f Frame) []byte {
	return appendTrailer(append(appendHeader(dst, magic, f), f.Payload...), f)
}

// appendHeader appends what precedes f's payload in a frame, appendTrailer
// what follows it.
func appendHeader(dst []byte, magic string, f Frame) []byte {
	dst = append(dst, magic...)
	dst = binary.BigEndian.AppendUint64(dst, f.Version)
	return binary.BigEndian.AppendUint64(dst, uint64(len(f.Payload)))
}

func appendTrailer(dst []byte, f Frame) []byte {
	return binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(f.Payload))
}

// NextFrame decodes the first frame in b under the given 8-byte magic and
// returns it together with the remaining bytes, for files holding many
// concatenated frames. It is the one place a frame's magic, length and CRC
// are checked.
// The returned payload aliases b. A buffer ending mid-frame reports
// errTornFrame (wrapped, with the byte position); a wrong magic or CRC
// mismatch is a plain corruption error. name labels the stream's origin
// in error messages.
func NextFrame(magic, name string, b []byte) (Frame, []byte, error) {
	const headerLen = 24 // magic + version + length
	if len(b) < headerLen {
		return Frame{}, nil, fmt.Errorf("snapstream: %s: %w (%d header bytes of %d)",
			name, errTornFrame, len(b), headerLen)
	}
	if string(b[:len(magic)]) != magic {
		return Frame{}, nil, fmt.Errorf("snapstream: %s: bad frame magic %q", name, b[:len(magic)])
	}
	version := binary.BigEndian.Uint64(b[8:16])
	n := binary.BigEndian.Uint64(b[16:24])
	total := uint64(headerLen) + n + 4
	// n is whatever the bytes say: one near 2^64 wraps total around to a
	// small number, so it is checked on its own first.
	if n > uint64(len(b)) || uint64(len(b)) < total {
		return Frame{}, nil, fmt.Errorf("snapstream: %s: %w (have %d payload bytes, header says %d)",
			name, errTornFrame, len(b)-headerLen, n)
	}
	payload := b[headerLen : headerLen+n]
	if got, want := crc32.ChecksumIEEE(payload), binary.BigEndian.Uint32(b[headerLen+n:]); got != want {
		return Frame{}, nil, fmt.Errorf("snapstream: %s: frame CRC mismatch (corrupted payload)", name)
	}
	return Frame{Version: version, Payload: payload}, b[total:], nil
}

// EncodeFrame returns the full wire encoding of f.
func EncodeFrame(f Frame) []byte {
	return AppendFrameMagic(make([]byte, 0, EncodedLen(f)), ckptMagic, f)
}

// DecodeFrame validates a buffer that is one wire-encoded frame and nothing
// else — NextFrame under the checkpoint magic with no bytes left over — and
// returns its version and payload. name labels the frame's origin (a file
// base name, a primary URL) in error messages. The returned payload aliases
// b. Torn or corrupted frames are reported as errors without any partial
// result.
func DecodeFrame(name string, b []byte) (Frame, error) {
	if len(b) < len(ckptMagic) || string(b[:len(ckptMagic)]) != ckptMagic {
		return Frame{}, fmt.Errorf("snapstream: %s: not a checkpoint frame", name)
	}
	f, rest, err := NextFrame(ckptMagic, name, b)
	if err != nil {
		return Frame{}, err
	}
	if len(rest) != 0 {
		return Frame{}, fmt.Errorf("snapstream: %s: %d bytes after the frame", name, len(rest))
	}
	return f, nil
}
