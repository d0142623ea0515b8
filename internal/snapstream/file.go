package snapstream

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"cdml/internal/obs"
)

// The file layer: durable frames under the checkpoint naming scheme
// (ckpt-%016d.ckpt, zero-padded so lexical order equals version order),
// written tmp+fsync+rename so a crash at any point leaves either the old
// file set or the old set plus one complete new file — never a torn frame
// under the final name.

const (
	filePrefix = "ckpt-"
	fileSuffix = ".ckpt"
)

// FileInfo identifies one durable frame file.
type FileInfo struct {
	// Version is the snapshot version stored in the frame header (and
	// encoded in the file name).
	Version uint64
	// Path is the frame file.
	Path string
	// At is when the file was written.
	At time.Time
}

// FilePath names the frame file of a snapshot version inside dir.
func FilePath(dir string, version uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%016d%s", filePrefix, version, fileSuffix))
}

// WriteFile durably persists one frame into dir. The write is crash-safe:
// the encoded frame goes to a *.tmp file which is fsynced, atomically
// renamed into place, and the directory entry is fsynced. The frame goes out
// as three writes — header, payload, CRC: the bytes EncodeFrame produces,
// without copying the payload into a second buffer of its size first (a
// crash between the writes tears a temp file no reader ever opens). Stage
// spans (write, fsync, rename) attach under parent; nil disables tracing
// (span methods are nil-safe).
func WriteFile(dir string, f Frame, parent *obs.Span) (FileInfo, error) {
	parts := [3][]byte{appendHeader(nil, ckptMagic, f), f.Payload, appendTrailer(nil, f)}
	path := FilePath(dir, f.Version)
	tmp := path + ".tmp"
	wr := parent.StartChild("write")
	fh, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return FileInfo{}, fmt.Errorf("snapstream: creating frame temp file: %w", err)
	}
	for _, part := range parts {
		if _, err := fh.Write(part); err != nil {
			_ = fh.Close()
			_ = os.Remove(tmp)
			return FileInfo{}, fmt.Errorf("snapstream: writing frame: %w", err)
		}
	}
	wr.Finish()
	fs := parent.StartChild("fsync")
	if err := fh.Sync(); err != nil {
		_ = fh.Close()
		_ = os.Remove(tmp)
		return FileInfo{}, fmt.Errorf("snapstream: syncing frame: %w", err)
	}
	if err := fh.Close(); err != nil {
		_ = os.Remove(tmp)
		return FileInfo{}, fmt.Errorf("snapstream: closing frame: %w", err)
	}
	fs.Finish()
	rn := parent.StartChild("rename")
	if err := os.Rename(tmp, path); err != nil {
		_ = os.Remove(tmp)
		return FileInfo{}, fmt.Errorf("snapstream: publishing frame: %w", err)
	}
	if err := SyncDir(dir); err != nil {
		return FileInfo{}, err
	}
	rn.Finish()
	return FileInfo{Version: f.Version, Path: path, At: time.Now()}, nil
}

// SyncDir fsyncs a directory so a just-renamed or just-created entry
// survives power loss — shared by the checkpoint writer and the ingest
// log's segment rolls.
func SyncDir(dir string) error {
	df, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("snapstream: opening frame dir for sync: %w", err)
	}
	serr := df.Sync()
	cerr := df.Close()
	if serr != nil {
		return fmt.Errorf("snapstream: syncing frame dir: %w", serr)
	}
	if cerr != nil {
		return fmt.Errorf("snapstream: closing frame dir: %w", cerr)
	}
	return nil
}

// ReadFile reads and validates one frame file. The header version is
// checked against the version encoded in the file name, so a renamed or
// mislabeled file cannot masquerade as a different recovery point.
func ReadFile(path string) (Frame, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Frame{}, fmt.Errorf("snapstream: reading frame: %w", err)
	}
	f, err := DecodeFrame(filepath.Base(path), b)
	if err != nil {
		return Frame{}, err
	}
	name := filepath.Base(path)
	if want, ok := versionFromName(name); ok && want != f.Version {
		return Frame{}, fmt.Errorf("snapstream: %s: header version %d does not match filename", name, f.Version)
	}
	return f, nil
}

// versionFromName parses the version out of a ckpt-%016d.ckpt file name.
func versionFromName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, filePrefix) || !strings.HasSuffix(name, fileSuffix) {
		return 0, false
	}
	v, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, filePrefix), fileSuffix), 10, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// List returns dir's frame files, newest (highest version) first, and
// removes stray *.tmp files left by a crash mid-write.
func List(dir string) ([]FileInfo, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("snapstream: listing frame dir: %w", err)
	}
	var out []FileInfo
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, fileSuffix+".tmp") {
			// A crash between create and rename leaves a temp file; it is by
			// definition not a published frame, so clear it out.
			_ = os.Remove(filepath.Join(dir, name))
			continue
		}
		v, ok := versionFromName(name)
		if !ok {
			continue
		}
		info := FileInfo{Version: v, Path: filepath.Join(dir, name)}
		if fi, err := e.Info(); err == nil {
			info.At = fi.ModTime()
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Version > out[j].Version })
	return out, nil
}

// DirSource yields frames from a checkpoint directory — the recovery-side
// counterpart of WriteFile.
type DirSource struct {
	// Dir is the frame directory.
	Dir string
}

// newest reads dir's frame files newest-first, skipping versions at or below
// since, and returns the first one that is valid and that accept (nil = any)
// takes — recovery falls back past torn, corrupted and rejected files to the
// next-older one. ErrNoFrame when the directory is missing or holds no frame
// files at all; ok is false when none is newer than since; an error naming
// every rejected file when some were and none was usable.
func (s DirSource) newest(since uint64, accept func(Frame) error) (Frame, FileInfo, bool, error) {
	files, err := List(s.Dir)
	if errors.Is(err, os.ErrNotExist) || (err == nil && len(files) == 0) {
		err = ErrNoFrame
	}
	if err != nil {
		return Frame{}, FileInfo{}, false, err
	}
	var reasons []string
	for _, fi := range files {
		if fi.Version <= since {
			break // newest-first: everything after is older still
		}
		f, err := ReadFile(fi.Path)
		if err == nil && accept != nil {
			if err = accept(f); err != nil {
				err = fmt.Errorf("snapstream: %s: %w", filepath.Base(fi.Path), err)
			}
		}
		if err != nil {
			reasons = append(reasons, err.Error())
			continue
		}
		return f, fi, true, nil
	}
	if len(reasons) > 0 {
		err = fmt.Errorf("snapstream: no valid frame newer than %d in %s: %s",
			since, s.Dir, strings.Join(reasons, "; "))
	}
	return Frame{}, FileInfo{}, false, err
}

// Latest returns the newest valid frame with version > since, skipping
// torn or corrupted files. ok is false when no file is newer than since;
// ErrNoFrame when the directory holds no frame files at all.
func (s DirSource) Latest(_ context.Context, since uint64) (Frame, bool, error) {
	f, _, ok, err := s.newest(since, nil)
	return f, ok, err
}

// Restore feeds the newest applicable frame into sink, falling back to
// older files when a newer one is torn, fails to decode, or is rejected by
// the sink. It returns ErrNoFrame when the directory holds no frame files
// (cold start) and an error naming every rejected file when none of the
// present frames is usable.
func (s DirSource) Restore(sink Sink) (FileInfo, error) {
	_, fi, ok, err := s.newest(0, sink.Apply)
	if err == nil && !ok {
		err = ErrNoFrame // only a version-0 file, which no deployment writes
	}
	return fi, err
}
