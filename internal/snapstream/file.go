package snapstream

import (
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
	// Size is the file's length in bytes.
	Size int64
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
	fh, err := Disk.Create(tmp, os.O_TRUNC)
	if err != nil {
		return FileInfo{}, fmt.Errorf("snapstream: creating frame temp file: %w", err)
	}
	for _, part := range parts {
		if err == nil {
			err = Disk.Write(fh, part)
		}
	}
	wr.Finish()
	if err == nil {
		fs := parent.StartChild("fsync")
		err = Disk.Sync(fh)
		fs.Finish()
	}
	if cerr := fh.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = Disk.Remove(tmp)
		return FileInfo{}, fmt.Errorf("snapstream: writing frame: %w", err)
	}
	rn := parent.StartChild("rename")
	if err := Disk.Rename(tmp, path); err != nil {
		_ = Disk.Remove(tmp)
		return FileInfo{}, fmt.Errorf("snapstream: publishing frame: %w", err)
	}
	if err := Disk.SyncDir(dir); err != nil {
		return FileInfo{}, err
	}
	rn.Finish()
	return FileInfo{Version: f.Version, Path: path, At: time.Now(), Size: int64(EncodedLen(f))}, nil
}

// Disk is the file layer every durable write of this package and of
// internal/wal goes through: create, write, fsync, rename, remove and
// directory fsync — the I/O boundaries a crash can fall between.
var Disk disk

type disk struct {
	// Fault is nil outside tests. A crash-point test sets it to count the
	// boundaries and fail one: it is asked before each operation — op is
	// "create", "write", "fsync", "rename", "remove" or "fsync-dir", to is a
	// rename's target — and an error it returns fails the operation without
	// performing it.
	Fault func(op, path, to string) error
}

func (d *disk) fault(op, path, to string) error {
	if d.Fault == nil {
		return nil
	}
	return d.Fault(op, path, to)
}

// Create opens path for writing, creating it; flag adds O_TRUNC, O_EXCL or
// O_APPEND.
func (d *disk) Create(path string, flag int) (*os.File, error) {
	if err := d.fault("create", path, ""); err != nil {
		return nil, err
	}
	return os.OpenFile(path, os.O_WRONLY|os.O_CREATE|flag, 0o644)
}

// Write writes all of b to f.
func (d *disk) Write(f *os.File, b []byte) (err error) {
	if err = d.fault("write", f.Name(), ""); err == nil {
		_, err = f.Write(b)
	}
	return err
}

// Sync fsyncs f.
func (d *disk) Sync(f *os.File) error {
	if err := d.fault("fsync", f.Name(), ""); err != nil {
		return err
	}
	return f.Sync()
}

// Rename moves from to to.
func (d *disk) Rename(from, to string) error {
	if err := d.fault("rename", from, to); err != nil {
		return err
	}
	return os.Rename(from, to)
}

// Remove deletes path.
func (d *disk) Remove(path string) error {
	if err := d.fault("remove", path, ""); err != nil {
		return err
	}
	return os.Remove(path)
}

// SyncDir fsyncs a directory so a just-renamed or just-created entry
// survives power loss — shared by the checkpoint writer and the ingest
// log's segment rolls.
func (d *disk) SyncDir(dir string) error {
	if err := d.fault("fsync-dir", dir, ""); err != nil {
		return err
	}
	df, err := os.Open(dir)
	if err == nil {
		err = df.Sync()
		if cerr := df.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return fmt.Errorf("snapstream: syncing frame dir: %w", err)
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
			_ = Disk.Remove(filepath.Join(dir, name))
			continue
		}
		v, ok := versionFromName(name)
		if !ok {
			continue
		}
		info := FileInfo{Version: v, Path: filepath.Join(dir, name)}
		if fi, err := e.Info(); err == nil {
			info.At, info.Size = fi.ModTime(), fi.Size()
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Version > out[j].Version })
	return out, nil
}

// RestoreNewest feeds the newest applicable frame file in dir to apply,
// falling back to the next-older file when a newer one is torn, corrupted,
// or refused by apply — recovery's one walk over a checkpoint directory. It
// returns ErrNoFrame when the directory is missing or holds no frame files
// (a cold start), and an error naming every rejected file when none of the
// present frames is usable.
func RestoreNewest(dir string, apply func(Frame) error) (FileInfo, error) {
	files, err := List(dir)
	if errors.Is(err, os.ErrNotExist) || (err == nil && len(files) == 0) {
		err = ErrNoFrame
	}
	if err != nil {
		return FileInfo{}, err
	}
	var reasons []string
	for _, fi := range files {
		f, err := ReadFile(fi.Path)
		if err == nil {
			if err = apply(f); err == nil {
				return fi, nil
			}
			err = fmt.Errorf("snapstream: %s: %w", filepath.Base(fi.Path), err)
		}
		reasons = append(reasons, err.Error())
	}
	return FileInfo{}, fmt.Errorf("snapstream: no valid frame in %s: %s", dir, strings.Join(reasons, "; "))
}
