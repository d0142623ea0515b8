package wal

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"cdml/internal/snapstream"
)

// frame wraps payload in a CRC-valid log frame: a fuzzer does not guess a
// CRC, and the payload decoders sit behind it.
func frame(seq uint64, payload []byte) []byte {
	return snapstream.AppendFrameMagic(nil, magic, snapstream.Frame{Version: seq, Payload: payload})
}

// countBomb is a data record that declares 2^32-1 records and holds none.
func countBomb() []byte {
	payload := append([]byte{kindData}, make([]byte, 8)...)
	return binary.BigEndian.AppendUint32(payload, ^uint32(0))
}

// openAndReplay boots a log over dir the way recovery does and returns what
// Replay delivered.
func openAndReplay(t *testing.T, dir string) (records int, err error) {
	t.Helper()
	l, err := Open(Options{Dir: dir, NoSync: true})
	if err != nil {
		return 0, err
	}
	defer l.Close()
	_, err = l.Replay(0, func(_ uint64, recs [][]byte) error {
		records += len(recs)
		return nil
	})
	return records, err
}

// TestReplayRefusesAnImpossibleRecordCount: one small CRC-valid segment file
// whose data record declares 2^32-1 records used to size a slice from that
// count — 96 GB — before reading a byte under it, and recovery died with
// "fatal error: runtime: out of memory". It is an error like any other
// malformed record.
func TestReplayRefusesAnImpossibleRecordCount(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal-0000000000000001.seg.open"), frame(1, countBomb()), 0o644); err != nil {
		t.Fatal(err)
	}
	if n, err := openAndReplay(t, dir); err == nil || n != 0 {
		t.Fatalf("replay of a record declaring 2^32-1 records: %d records, err = %v", n, err)
	}
}

// FuzzReplay: the active segment is whatever a crash, a bad disk or an
// operator left there. Open and Replay over arbitrary bytes return or
// report an error; they never panic, and never deliver more records than the
// bytes could hold (each costs four length bytes). Every input is tried as
// the file itself and as the payload of a valid frame between two good
// records.
func FuzzReplay(f *testing.F) {
	good := frame(1, encodeDataPayload(chunk("seed", 2), 7))
	commit := append([]byte{kindCommit}, make([]byte, 8)...)
	f.Add(good)
	f.Add(good[:len(good)-5])
	f.Add(append(append([]byte(nil), good...), frame(1, commit)...))
	f.Add(countBomb())
	f.Add(commit[:4])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, in []byte) {
		framed := append(append(append([]byte(nil), good...), frame(2, in)...), frame(3, encodeDataPayload(chunk("after", 1), 9))...)
		dir := t.TempDir() // Open adds no file beside an active segment
		for _, seg := range [][]byte{in, framed} {
			if err := os.WriteFile(filepath.Join(dir, "wal-0000000000000001.seg.open"), seg, 0o644); err != nil {
				t.Fatal(err)
			}
			if n, _ := openAndReplay(t, dir); n > len(seg)/4 {
				t.Fatalf("%d records replayed out of %d bytes", n, len(seg))
			}
		}
	})
}
