package snapstream

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	f := Frame{Version: 42, Payload: []byte("hello snapshot payload")}
	wire := EncodeFrame(f)
	if len(wire) != EncodedLen(f) {
		t.Fatalf("EncodedLen = %d, wire = %d", EncodedLen(f), len(wire))
	}
	got, err := DecodeFrame("test", wire)
	if err != nil {
		t.Fatalf("DecodeFrame: %v", err)
	}
	if got.Version != f.Version || !bytes.Equal(got.Payload, f.Payload) {
		t.Fatalf("round trip mismatch: got %+v want %+v", got, f)
	}
}

func TestDecodeFrameDetectsCorruption(t *testing.T) {
	whole := EncodeFrame(Frame{Version: 7, Payload: []byte("payload bytes")})
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"torn", whole[:len(whole)/2], "torn"},
		{"bad-magic", append([]byte("NOTACKPT"), whole[8:]...), "not a checkpoint"},
		{"bit-flip", func() []byte {
			b := bytes.Clone(whole)
			b[len(ckptMagic)+20] ^= 0x40
			return b
		}(), "CRC"},
		{"empty", nil, "not a checkpoint"},
	}
	for _, tc := range cases {
		if _, err := DecodeFrame(tc.name, tc.data); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

func TestFileRoundTripAndList(t *testing.T) {
	dir := t.TempDir()
	for v := uint64(1); v <= 3; v++ {
		if _, err := WriteFile(dir, Frame{Version: v, Payload: []byte{byte(v)}}, nil); err != nil {
			t.Fatalf("WriteFile v%d: %v", v, err)
		}
	}
	// A stray tmp file from a crashed write must be cleaned up by List.
	stray := filepath.Join(dir, "ckpt-0000000000000099.ckpt.tmp")
	if err := os.WriteFile(stray, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	files, err := List(dir)
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	if len(files) != 3 || files[0].Version != 3 || files[2].Version != 1 {
		t.Fatalf("List = %+v, want versions 3,2,1", files)
	}
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Fatalf("stray tmp file not removed: %v", err)
	}
	f, err := ReadFile(files[0].Path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if f.Version != 3 || !bytes.Equal(f.Payload, []byte{3}) {
		t.Fatalf("ReadFile = %+v", f)
	}
}

func TestReadFileRejectsRenamedVersion(t *testing.T) {
	dir := t.TempDir()
	if _, err := WriteFile(dir, Frame{Version: 5, Payload: []byte("x")}, nil); err != nil {
		t.Fatal(err)
	}
	renamed := FilePath(dir, 9)
	if err := os.Rename(FilePath(dir, 5), renamed); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(renamed); err == nil || !strings.Contains(err.Error(), "does not match filename") {
		t.Fatalf("renamed frame: err = %v, want filename mismatch", err)
	}
}

type captureSink struct{ frames []Frame }

func (s *captureSink) Apply(f Frame) error {
	s.frames = append(s.frames, f)
	return nil
}

func TestDirSourceRestoreFallsBackPastTornFiles(t *testing.T) {
	dir := t.TempDir()
	if _, err := WriteFile(dir, Frame{Version: 1, Payload: []byte("good")}, nil); err != nil {
		t.Fatal(err)
	}
	whole := EncodeFrame(Frame{Version: 2, Payload: []byte("newer")})
	if err := os.WriteFile(FilePath(dir, 2), whole[:len(whole)-6], 0o644); err != nil {
		t.Fatal(err)
	}
	var sink captureSink
	info, err := DirSource{Dir: dir}.Restore(&sink)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if info.Version != 1 || len(sink.frames) != 1 || sink.frames[0].Version != 1 {
		t.Fatalf("Restore fell back wrong: info=%+v frames=%+v", info, sink.frames)
	}
	// Latest walks the same directory the same way: past the torn file, to
	// the frame Restore applied.
	if f, ok, err := (DirSource{Dir: dir}).Latest(context.Background(), 0); err != nil || !ok || f.Version != info.Version {
		t.Fatalf("Latest(0) = %+v %v %v over the directory Restore took v%d from", f, ok, err, info.Version)
	}
	// With nothing valid above since, the torn file is the error, as it is
	// Restore's when no file is usable.
	if _, ok, err := (DirSource{Dir: dir}).Latest(context.Background(), 1); ok || err == nil || !strings.Contains(err.Error(), "torn") {
		t.Fatalf("Latest(1) = ok=%v err=%v, want the torn newer file reported", ok, err)
	}

	if _, err := (DirSource{Dir: t.TempDir()}).Restore(&sink); !errors.Is(err, ErrNoFrame) {
		t.Fatalf("empty dir: err = %v, want ErrNoFrame", err)
	}
	if _, err := (DirSource{Dir: filepath.Join(t.TempDir(), "missing")}).Restore(&sink); !errors.Is(err, ErrNoFrame) {
		t.Fatalf("missing dir: err = %v, want ErrNoFrame", err)
	}
}

func TestDirSourceLatestHonorsSince(t *testing.T) {
	dir := t.TempDir()
	for v := uint64(1); v <= 2; v++ {
		if _, err := WriteFile(dir, Frame{Version: v, Payload: []byte{byte(v)}}, nil); err != nil {
			t.Fatal(err)
		}
	}
	src := DirSource{Dir: dir}
	f, ok, err := src.Latest(context.Background(), 1)
	if err != nil || !ok || f.Version != 2 {
		t.Fatalf("Latest(1) = %+v %v %v, want v2", f, ok, err)
	}
	if _, ok, err := src.Latest(context.Background(), 2); err != nil || ok {
		t.Fatalf("Latest(2) = ok=%v err=%v, want idle", ok, err)
	}
	// Restore walks the same directory the same way: the file Latest
	// returned is the one it applies.
	var sink captureSink
	info, err := src.Restore(&sink)
	if err != nil || info.Version != f.Version || info.Path != FilePath(dir, f.Version) ||
		len(sink.frames) != 1 || !bytes.Equal(sink.frames[0].Payload, f.Payload) {
		t.Fatalf("Restore = %+v %v, frames %+v; Latest picked v%d", info, err, sink.frames, f.Version)
	}
}

func TestHTTPSourcePollProtocol(t *testing.T) {
	frame := Frame{Version: 6, Payload: []byte("model state")}
	wire := EncodeFrame(frame)
	var torn bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(VersionHeader, strconv.FormatUint(frame.Version, 10))
		since, _ := strconv.ParseUint(r.URL.Query().Get("since"), 10, 64)
		if since >= frame.Version {
			w.WriteHeader(http.StatusNotModified)
			return
		}
		if torn {
			_, _ = w.Write(wire[:len(wire)-3])
			return
		}
		_, _ = w.Write(wire)
	}))
	defer ts.Close()

	src := NewHTTPSource(ts.URL, 0)
	f, ok, err := src.Latest(context.Background(), 0)
	if err != nil || !ok {
		t.Fatalf("Latest(0): ok=%v err=%v", ok, err)
	}
	if f.Version != 6 || !bytes.Equal(f.Payload, frame.Payload) {
		t.Fatalf("Latest(0) = %+v", f)
	}
	if src.KnownVersion() != 6 {
		t.Fatalf("KnownVersion = %d, want 6", src.KnownVersion())
	}
	if _, ok, err := src.Latest(context.Background(), 6); err != nil || ok {
		t.Fatalf("Latest(6) = ok=%v err=%v, want 304 idle", ok, err)
	}
	torn = true
	if _, _, err := src.Latest(context.Background(), 0); err == nil || !strings.Contains(err.Error(), "torn") {
		t.Fatalf("torn body: err = %v, want torn frame error", err)
	}
	if src.KnownVersion() != 6 {
		t.Fatalf("KnownVersion after torn poll = %d, want 6", src.KnownVersion())
	}
}
