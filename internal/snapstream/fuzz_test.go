package snapstream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"testing"
)

const walMagic = "CDMLWAL1" // the ingest log frames its records under its own magic

func seedFrames(f *testing.F) {
	f.Helper()
	whole := EncodeFrame(Frame{Version: 7, Payload: []byte("snapshot payload bytes")})
	f.Add(whole)
	f.Add(whole[:len(whole)-3])
	f.Add(EncodeFrame(Frame{}))
	f.Add(append(append([]byte(nil), whole...), whole...))
	f.Add(append(append([]byte(nil), whole...), 0)) // one byte after the frame
	f.Add(AppendFrameMagic(nil, walMagic, Frame{Version: 1, Payload: []byte("a logged chunk")}))
	// A length near 2^64: header + length + CRC wraps around to 2.
	huge := append([]byte(nil), whole...)
	binary.BigEndian.PutUint64(huge[16:], ^uint64(0)-25)
	f.Add(huge)
}

// sealed returns b with the magic and, where the length field fits the
// bytes present, the CRC made right: a fuzzer does not guess a CRC, and the
// accepting path is the one that slices.
func sealed(b []byte, magic string) []byte {
	if len(b) < frameOverhead {
		return b
	}
	b = append([]byte(nil), b...)
	copy(b, magic)
	if n := binary.BigEndian.Uint64(b[16:24]); n <= uint64(len(b)-frameOverhead) {
		binary.BigEndian.PutUint32(b[24+n:], crc32.ChecksumIEEE(b[24:24+n]))
	}
	return b
}

// decodersAgree: DecodeFrame is NextFrame under the checkpoint magic plus
// "nothing after the frame" — it accepts b exactly when NextFrame does and
// leaves no bytes, and then returns the same frame.
func decodersAgree(t *testing.T, b []byte) (Frame, error) {
	t.Helper()
	fr, err := DecodeFrame("fuzz", b)
	next, rest, nerr := NextFrame(ckptMagic, "fuzz", b)
	if want := nerr == nil && len(rest) == 0; (err == nil) != want {
		t.Fatalf("DecodeFrame(%x): %v; NextFrame: %d bytes left, %v", b, err, len(rest), nerr)
	}
	if err == nil && (fr.Version != next.Version || !bytes.Equal(fr.Payload, next.Payload)) {
		t.Fatalf("DecodeFrame(%x) = %+v, NextFrame = %+v", b, fr, next)
	}
	return fr, err
}

// TestDecodeFrameIsNextFrameWithNothingLeft runs decodersAgree over every
// truncation, every one-byte extension and every bit flip of a valid frame.
func TestDecodeFrameIsNextFrameWithNothingLeft(t *testing.T) {
	whole := EncodeFrame(Frame{Version: 7, Payload: []byte("snapshot payload bytes")})
	accepted := 0
	try := func(b []byte) {
		if _, err := decodersAgree(t, b); err == nil {
			accepted++
		}
	}
	for n := range len(whole) + 1 {
		try(whole[:n])
	}
	for x := range 256 {
		try(append(bytes.Clone(whole), byte(x)))
	}
	for i := range whole {
		for bit := range 8 {
			b := bytes.Clone(whole)
			b[i] ^= 1 << bit
			try(b)
		}
	}
	// The frame itself, and its 64 version-field flips: the version is not
	// under the CRC.
	if accepted != 1+64 {
		t.Fatalf("%d variants accepted, want 65", accepted)
	}
}

// DecodeFrame reads files and HTTP bodies: any input is an error, or a frame
// that encodes back to exactly those bytes — and NextFrame agrees.
func FuzzDecodeFrame(f *testing.F) {
	seedFrames(f)
	f.Fuzz(func(t *testing.T, in []byte) {
		for _, b := range [][]byte{in, sealed(in, ckptMagic)} {
			fr, err := decodersAgree(t, b)
			if err != nil {
				continue
			}
			if again := EncodeFrame(fr); !bytes.Equal(again, b) {
				t.Fatalf("accepted %x, re-encoded to %x", b, again)
			}
		}
	})
}

// NextFrame scans log segments a crash may have cut anywhere: any input is a
// torn frame, a corruption error, or a frame that re-encodes to the bytes
// consumed, with the rest handed back untouched.
func FuzzNextFrame(f *testing.F) {
	seedFrames(f)
	f.Fuzz(func(t *testing.T, in []byte) {
		for _, magic := range []string{ckptMagic, walMagic} {
			for _, b := range [][]byte{in, sealed(in, magic)} {
				fr, rest, err := NextFrame(magic, "fuzz", b)
				if err != nil {
					if rest != nil {
						t.Fatalf("an error came with %d bytes of rest", len(rest))
					}
					if len(b) < frameOverhead && !errors.Is(err, errTornFrame) && bytes.HasPrefix(b, []byte(magic)) {
						t.Fatalf("%d bytes under the right magic cannot hold a frame, yet are not torn: %v", len(b), err)
					}
					continue
				}
				used := AppendFrameMagic(nil, magic, fr)
				if !bytes.Equal(used, b[:len(b)-len(rest)]) || !bytes.Equal(rest, b[len(used):]) {
					t.Fatalf("accepted %x as frame %x + rest %x", b, used, rest)
				}
			}
		}
	})
}

// WriteFile writes the frame in parts; the file must still be EncodeFrame's
// bytes.
func TestWriteFileIsTheEncodedFrame(t *testing.T) {
	for _, f := range []Frame{{Version: 3, Payload: []byte("payload")}, {Version: 4}} {
		info, err := WriteFile(t.TempDir(), f, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(info.Path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, EncodeFrame(f)) {
			t.Fatalf("version %d: file holds %x, EncodeFrame gives %x", f.Version, got, EncodeFrame(f))
		}
	}
}
