// Package wal is the durable write-ahead ingest log: a segmented,
// CRC-framed, append-only record of every chunk the async ingest path has
// 202-acknowledged. Checkpoints make recovery possible; the log makes it
// exact. A chunk is appended (and fsynced) before the ack, the training
// drainer marks consumption with a buffered commit record carrying the
// publish version the tick produced, and recovery replays every logged
// chunk whose committed version is newer than the recovered checkpoint —
// so a restart converges to bit-identical state with an uninterrupted run.
//
// On-disk layout, mirroring the checkpoint directory next door:
//
//	wal-%016d.seg       sealed segment (first data seq in the name)
//	wal-%016d.seg.open  the one active segment, appended in place
//
// Each segment is a concatenation of snapstream frames under the
// "CDMLWAL1" magic (same header/CRC discipline as the CDMLCKP1 checkpoint
// frames). The frame version field carries the record sequence number:
//
//	data record    payload = kind(1) | watermark u64 | n u32 | (len u32 | bytes)*
//	commit record  payload = kind(2) | applied u64          (frame version = target data seq)
//
// A data record's watermark is the deployment's published snapshot version
// at append time — lineage metadata, not the replay filter. The replay
// filter is the commit record: a tick that consumed data seq S and
// published version P appends commit(S, P) *before* the publish, and the
// checkpoint writer fsyncs the log before making any checkpoint durable.
// Hence a checkpoint at version V durable on disk implies every commit
// with applied ≤ V is durable too, and replay after recovering V is
// exactly the records with no commit, a commit > V, or — never — a torn
// tail the ack did not cover. An abort record is a commit whose applied
// field is the reserved mark ^uint64(0): the record was rejected after
// append (queue full/closed) or its tick failed, and must not replay. It
// is fsynced before MarkAborted returns, so a chunk the client was told was
// rejected never replays.
//
// Segment rolls follow the checkpoint file discipline: the active file is
// fsynced, closed, renamed to its sealed name, and the directory entry
// fsynced, so a crash leaves either the old file set or the old set plus
// one complete sealed segment. Torn frames are only possible at the tail
// of the active segment (every acknowledged append was fsynced first);
// Open truncates the tail to the last complete frame and continues.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"cdml/internal/snapstream"
)

// magic is the 8-byte preamble of every ingest-log frame.
const magic = "CDMLWAL1"

const (
	kindData   = 1
	kindCommit = 2

	segPrefix  = "wal-"
	segSuffix  = ".seg"
	openSuffix = ".seg.open"

	// abortedMark in a commit record's applied field means "never replay".
	abortedMark = ^uint64(0)
)

// DefaultSegmentBytes is the roll threshold when Options.SegmentBytes is
// zero: small enough that retention reclaims space promptly, large enough
// that steady ingest does not churn directory entries.
const DefaultSegmentBytes = 4 << 20

// Options configures an ingest log.
type Options struct {
	// Dir is the log directory, created if absent. One deployment lineage
	// per directory; two live Logs on one directory corrupt it.
	Dir string
	// SegmentBytes rolls the active segment once it reaches this size
	// (the record that crosses the line stays in the old segment).
	// 0 means DefaultSegmentBytes.
	SegmentBytes int64
	// NoSync skips the per-append fsync. Test and benchmark use only: it
	// voids the durable-ack guarantee the log exists to provide.
	NoSync bool
}

// Stats is a point-in-time snapshot of log counters, served on .../status
// and exported as cdml_wal_* metrics.
type Stats struct {
	// LastSeq is the highest data record sequence number ever appended.
	LastSeq uint64
	// Appends counts data records appended by this process.
	Appends uint64
	// Applied counts commit records written by this process.
	Applied uint64
	// Aborted counts abort records written by this process.
	Aborted uint64
	// Replayed counts records delivered by the most recent Replay.
	Replayed uint64
	// Truncations counts torn tails cut off the active segment at Open.
	Truncations uint64
	// PrunedSegments counts segments removed by retention.
	PrunedSegments uint64
	// Segments is the current segment file count (including the active one).
	Segments int
	// Bytes is the current on-disk size across all segments.
	Bytes int64
	// Unapplied is the number of data records with no commit or abort —
	// the records a crash right now would replay.
	Unapplied int
}

// segment is the in-memory index of one segment file. The data-record
// fields (first/last/unapplied/maxApplied) describe records *homed* in
// this segment; a commit record physically living in a later segment
// still updates the meta of the segment holding its target data record.
type segment struct {
	path       string
	sealed     bool
	bytes      int64
	firstSeq   uint64 // 0 = no data records yet
	lastSeq    uint64
	unapplied  int    // data records with no commit/abort
	maxApplied uint64 // highest committed publish version of records homed here
}

// Log is a durable write-ahead ingest log. All methods are safe for
// concurrent use; appends serialize on an internal mutex (one fsync per
// acknowledged chunk).
type Log struct {
	dir      string
	segBytes int64
	noSync   bool

	mu      sync.Mutex
	active  *os.File   //cdml:guardedby mu
	segs    []*segment //cdml:guardedby mu — oldest first, last is the active segment
	lastSeq uint64     //cdml:guardedby mu
	// applied maps data seq → latest committed publish version
	// (abortedMark = aborted); absence means unconsumed.
	applied map[uint64]uint64 //cdml:guardedby mu
	dirty   bool              //cdml:guardedby mu — buffered commit records not yet fsynced

	appends     uint64 //cdml:guardedby mu
	committed   uint64 //cdml:guardedby mu
	aborted     uint64 //cdml:guardedby mu
	replayed    uint64 //cdml:guardedby mu
	truncations uint64 //cdml:guardedby mu
	prunedSegs  uint64 //cdml:guardedby mu
}

// Open opens (creating if necessary) the ingest log in opts.Dir, indexes
// every segment, truncates a torn tail off the active segment, and
// positions it for appending.
func Open(opts Options) (*Log, error) {
	if opts.Dir == "" {
		return nil, errors.New("wal: Options.Dir is required")
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: creating log dir: %w", err)
	}
	l := &Log{
		dir:      opts.Dir,
		segBytes: opts.SegmentBytes,
		noSync:   opts.NoSync,
		applied:  make(map[uint64]uint64),
	}
	if err := l.scan(); err != nil {
		return nil, err
	}
	return l, nil
}

// scan indexes the existing segment files and opens (or creates) the
// active segment.
//
//cdml:locked mu — Open-time only, before the Log is shared
func (l *Log) scan() error {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return fmt.Errorf("wal: listing log dir: %w", err)
	}
	type named struct {
		seq  uint64
		name string
		open bool
	}
	var files []named
	for _, e := range entries {
		name := e.Name()
		seq, open, ok := parseSegName(name)
		if !ok {
			continue
		}
		files = append(files, named{seq: seq, name: name, open: open})
	}
	sort.Slice(files, func(i, j int) bool { return files[i].seq < files[j].seq })
	openCount := 0
	for i, f := range files {
		if f.open {
			openCount++
			if openCount > 1 || i != len(files)-1 {
				return fmt.Errorf("wal: %s: active segment is not the newest file (corrupt directory?)", f.name)
			}
		}
		if err := l.indexSegment(filepath.Join(l.dir, f.name), f.open); err != nil {
			return err
		}
	}
	if openCount == 0 {
		// Fresh directory, or a crash landed exactly between sealing the old
		// active segment and creating the next one — either way, start a new
		// active segment after the highest known sequence.
		if err := l.newActive(l.lastSeq + 1); err != nil {
			return err
		}
	}
	return nil
}

// indexSegment reads one segment file into the in-memory index. For the
// active (open) segment a torn tail is truncated to the last complete
// frame; for a sealed segment any framing error is corruption.
//
//cdml:locked mu — Open-time only, before the Log is shared
func (l *Log) indexSegment(path string, open bool) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("wal: reading segment: %w", err)
	}
	name := filepath.Base(path)
	seg := &segment{path: path, sealed: !open}
	l.segs = append(l.segs, seg)
	valid := int64(0)
	rest := b
	for len(rest) > 0 {
		f, next, err := snapstream.NextFrame(magic, name, rest)
		if err != nil {
			if !open {
				return fmt.Errorf("wal: sealed segment corrupt: %w", err)
			}
			// Torn tail of the active segment: the crash point. Everything
			// past the last complete frame was never acknowledged (appends
			// fsync before returning), so cutting it loses nothing accepted.
			l.truncations++
			break
		}
		valid += int64(len(rest) - len(next))
		l.index(seg, f)
		rest = next
	}
	seg.bytes = valid
	if open {
		if valid != int64(len(b)) {
			if err := os.Truncate(path, valid); err != nil {
				return fmt.Errorf("wal: truncating torn tail: %w", err)
			}
		}
		fh, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("wal: opening active segment: %w", err)
		}
		if valid != int64(len(b)) && !l.noSync {
			if err := snapstream.Disk.Sync(fh); err != nil {
				_ = fh.Close()
				return fmt.Errorf("wal: syncing truncated segment: %w", err)
			}
		}
		l.active = fh
	}
	return nil
}

// index applies one frame to the in-memory index.
//
//cdml:locked mu — Open-time only, before the Log is shared
func (l *Log) index(home *segment, f snapstream.Frame) {
	if len(f.Payload) == 0 {
		return
	}
	switch f.Payload[0] {
	case kindData:
		if f.Version > l.lastSeq {
			l.lastSeq = f.Version
		}
		if home.firstSeq == 0 {
			home.firstSeq = f.Version
		}
		home.lastSeq = f.Version
		home.unapplied++
	case kindCommit:
		if len(f.Payload) < 9 {
			return
		}
		applied := binary.BigEndian.Uint64(f.Payload[1:9])
		l.noteCommit(f.Version, applied)
	}
}

// noteCommit records that data seq has been committed at the given publish
// version (or aborted), updating the target record's home segment.
//
//cdml:locked mu
func (l *Log) noteCommit(seq, applied uint64) {
	_, seen := l.applied[seq]
	l.applied[seq] = applied
	home := l.segmentOf(seq)
	if home == nil {
		return // target already pruned, or a foreign seq — nothing to track
	}
	if !seen {
		home.unapplied--
	}
	if applied != abortedMark && applied > home.maxApplied {
		home.maxApplied = applied
	}
}

// segmentOf returns the segment homing data seq, nil if pruned/unknown.
//
//cdml:locked mu
func (l *Log) segmentOf(seq uint64) *segment {
	for _, s := range l.segs {
		if s.firstSeq != 0 && seq >= s.firstSeq && seq <= s.lastSeq {
			return s
		}
	}
	return nil
}

// Append durably appends one chunk of encoded records stamped with the
// deployment's current publish-version watermark and returns its sequence
// number. The record is fsynced before Append returns — this is the
// durability behind the 202 ack.
func (l *Log) Append(records [][]byte, watermark uint64) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.active == nil {
		return 0, errors.New("wal: log is closed")
	}
	seq := l.lastSeq + 1
	if l.activeSegment().bytes >= l.segBytes {
		if err := l.roll(seq); err != nil {
			return 0, err
		}
	}
	if err := l.writeFrame(snapstream.Frame{Version: seq, Payload: encodeDataPayload(records, watermark)}); err != nil {
		return 0, err
	}
	if err := l.sync(); err != nil {
		return 0, err
	}
	l.lastSeq = seq
	seg := l.activeSegment()
	if seg.firstSeq == 0 {
		seg.firstSeq = seq
	}
	seg.lastSeq = seq
	seg.unapplied++
	l.appends++
	return seq, nil
}

// MarkApplied records that the tick consuming data seq published the given
// version. The commit record is buffered, not fsynced (an abort record is:
// see MarkAborted): it is made durable by the next append's fsync or by the checkpoint writer's Sync call
// before any checkpoint that could cover it becomes durable — losing a
// buffered commit in a crash merely replays a record whose effect was
// never checkpointed. Unknown sequence numbers (already pruned, or a
// chunk logged by a since-replaced champion) are ignored.
func (l *Log) MarkApplied(seq, version uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.active == nil {
		return errors.New("wal: log is closed")
	}
	if l.segmentOf(seq) == nil {
		return nil
	}
	payload := binary.BigEndian.AppendUint64(append(make([]byte, 0, 9), kindCommit), version)
	if err := l.writeFrame(snapstream.Frame{Version: seq, Payload: payload}); err != nil {
		return err
	}
	l.dirty = true
	l.noteCommit(seq, version)
	if version == abortedMark {
		l.aborted++
		return l.sync()
	}
	l.committed++
	return nil
}

// MarkAborted records that data seq must never replay: its enqueue was
// rejected after the append, or its tick failed (failed async ticks are
// surfaced, not retried — replaying one on recovery would diverge from
// the uninterrupted run). Unlike a commit, the abort record is fsynced
// before MarkAborted returns: the rejection it stands for is answered next,
// and nothing else would make it durable before a checkpoint covers it.
func (l *Log) MarkAborted(seq uint64) error {
	return l.MarkApplied(seq, abortedMark)
}

// Sync fsyncs buffered commit records. The checkpoint writer calls this
// before writing a checkpoint file, establishing the invariant replay
// correctness rests on: checkpoint at V durable ⇒ all commits ≤ V durable.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.active == nil || !l.dirty {
		return nil
	}
	return l.sync()
}

// Replay streams every data record that must be re-applied on top of a
// checkpoint at ckptVersion, in append order: records with no commit, or
// a commit newer than ckptVersion; aborted records are skipped. fn
// receives the record's sequence number and decoded chunk and may call
// MarkApplied as it consumes. Returns the number of records delivered.
func (l *Log) Replay(ckptVersion uint64, fn func(seq uint64, records [][]byte) error) (int, error) {
	l.mu.Lock()
	paths := make([]string, 0, len(l.segs))
	for _, s := range l.segs {
		paths = append(paths, s.path)
	}
	applied := make(map[uint64]uint64, len(l.applied))
	for k, v := range l.applied {
		applied[k] = v
	}
	l.replayed = 0
	l.mu.Unlock()

	n := 0
	for _, path := range paths {
		b, err := os.ReadFile(path)
		if err != nil {
			return n, fmt.Errorf("wal: replay read: %w", err)
		}
		name := filepath.Base(path)
		rest := b
		for len(rest) > 0 {
			f, next, err := snapstream.NextFrame(magic, name, rest)
			if err != nil {
				// Open already truncated torn tails; hitting one here means
				// the file changed or rotted underneath us.
				return n, fmt.Errorf("wal: replay: %w", err)
			}
			rest = next
			if len(f.Payload) == 0 || f.Payload[0] != kindData {
				continue
			}
			if v, ok := applied[f.Version]; ok && (v == abortedMark || v <= ckptVersion) {
				continue
			}
			_, records, err := decodeChunk(f.Payload)
			if err != nil {
				return n, fmt.Errorf("wal: %s: seq %d: %w", name, f.Version, err)
			}
			if err := fn(f.Version, records); err != nil {
				return n, fmt.Errorf("wal: replaying seq %d: %w", f.Version, err)
			}
			n++
			l.mu.Lock()
			l.replayed++
			l.mu.Unlock()
		}
	}
	return n, nil
}

// Prune removes sealed segments whose every data record is committed at or
// below keepVersion (or aborted) — called with the oldest publish version
// the checkpoint retention still holds, so the log never outlives the
// checkpoint that subsumes it but always covers the gap past the oldest
// retained checkpoint. Only a prefix is ever removed: commits are
// appended at-or-after their data record, so dropping a prefix cannot
// orphan a commit the kept suffix needs. The active segment is never
// touched.
func (l *Log) Prune(keepVersion uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	removed := false
	for len(l.segs) > 1 && l.segs[0].sealed {
		s := l.segs[0]
		if s.unapplied > 0 || s.maxApplied > keepVersion {
			break
		}
		if err := snapstream.Disk.Remove(s.path); err != nil {
			return fmt.Errorf("wal: pruning segment: %w", err)
		}
		for seq := s.firstSeq; s.firstSeq != 0 && seq <= s.lastSeq; seq++ {
			delete(l.applied, seq)
		}
		l.segs = l.segs[1:]
		l.prunedSegs++
		removed = true
	}
	if removed {
		if err := snapstream.Disk.SyncDir(l.dir); err != nil {
			return err
		}
	}
	return nil
}

// Close fsyncs buffered commits and closes the active segment. The log is
// unusable afterwards.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.active == nil {
		return nil
	}
	var err error
	if l.dirty {
		err = l.sync()
	}
	if cerr := l.active.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("wal: closing active segment: %w", cerr)
	}
	l.active = nil
	return err
}

// Stats returns a point-in-time counter snapshot.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := Stats{
		LastSeq:        l.lastSeq,
		Appends:        l.appends,
		Applied:        l.committed,
		Aborted:        l.aborted,
		Replayed:       l.replayed,
		Truncations:    l.truncations,
		PrunedSegments: l.prunedSegs,
		Segments:       len(l.segs),
	}
	for _, s := range l.segs {
		st.Bytes += s.bytes
		st.Unapplied += s.unapplied
	}
	return st
}

// activeSegment returns the in-memory meta of the open segment.
//
//cdml:locked mu
func (l *Log) activeSegment() *segment {
	return l.segs[len(l.segs)-1]
}

// writeFrame appends one frame to the active segment file.
//
//cdml:locked mu
func (l *Log) writeFrame(f snapstream.Frame) error {
	b := snapstream.AppendFrameMagic(make([]byte, 0, snapstream.EncodedLen(f)), magic, f)
	if err := snapstream.Disk.Write(l.active, b); err != nil {
		return fmt.Errorf("wal: appending record: %w", err)
	}
	l.activeSegment().bytes += int64(len(b))
	return nil
}

// sync fsyncs the active segment and clears the dirty flag.
//
//cdml:locked mu
func (l *Log) sync() error {
	if !l.noSync {
		if err := snapstream.Disk.Sync(l.active); err != nil {
			return fmt.Errorf("wal: syncing segment: %w", err)
		}
	}
	l.dirty = false
	return nil
}

// roll seals the active segment (fsync, close, rename to the sealed name,
// dir fsync — the checkpoint writer's tmp+fsync+rename discipline, with
// the open segment playing the temp file) and starts a new one named by
// the first sequence number it will hold.
//
//cdml:locked mu
func (l *Log) roll(nextSeq uint64) error {
	if err := l.sync(); err != nil {
		return err
	}
	if err := l.active.Close(); err != nil {
		return fmt.Errorf("wal: closing segment for seal: %w", err)
	}
	l.active = nil
	seg := l.activeSegment()
	sealed := strings.TrimSuffix(seg.path, ".open")
	if err := snapstream.Disk.Rename(seg.path, sealed); err != nil {
		return fmt.Errorf("wal: sealing segment: %w", err)
	}
	if err := snapstream.Disk.SyncDir(l.dir); err != nil {
		return err
	}
	seg.path = sealed
	seg.sealed = true
	return l.newActive(nextSeq)
}

// newActive creates the next active segment file.
//
//cdml:locked mu
func (l *Log) newActive(firstSeq uint64) error {
	path := filepath.Join(l.dir, fmt.Sprintf("%s%016d%s", segPrefix, firstSeq, openSuffix))
	fh, err := snapstream.Disk.Create(path, os.O_EXCL|os.O_APPEND)
	if err != nil {
		return fmt.Errorf("wal: creating active segment: %w", err)
	}
	if err := snapstream.Disk.SyncDir(l.dir); err != nil {
		_ = fh.Close()
		return err
	}
	l.active = fh
	l.segs = append(l.segs, &segment{path: path})
	return nil
}

// parseSegName extracts the first-sequence number from a segment file
// name and reports whether it is the active (open) segment.
func parseSegName(name string) (seq uint64, open, ok bool) {
	core, open := strings.CutSuffix(name, ".open")
	if core, ok = strings.CutSuffix(core, segSuffix); ok {
		core, ok = strings.CutPrefix(core, segPrefix)
	}
	seq, err := strconv.ParseUint(core, 10, 64)
	return seq, open, ok && err == nil
}

// encodeDataPayload builds a data record payload.
func encodeDataPayload(records [][]byte, watermark uint64) []byte {
	payload := make([]byte, 0, 13+chunkLen(records))
	payload = append(payload, kindData)
	payload = binary.BigEndian.AppendUint64(payload, watermark)
	payload = binary.BigEndian.AppendUint32(payload, uint32(len(records)))
	for _, r := range records {
		payload = binary.BigEndian.AppendUint32(payload, uint32(len(r)))
		payload = append(payload, r...)
	}
	return payload
}

// chunkLen sums the encoded size of a chunk's records.
func chunkLen(records [][]byte) int {
	n := 0
	for _, r := range records {
		n += 4 + len(r)
	}
	return n
}

// decodeChunk decodes a data record payload into its watermark and
// records.
func decodeChunk(payload []byte) (watermark uint64, records [][]byte, err error) {
	if len(payload) < 13 || payload[0] != kindData {
		return 0, nil, errors.New("wal: malformed data record")
	}
	watermark = binary.BigEndian.Uint64(payload[1:9])
	n := binary.BigEndian.Uint32(payload[9:13])
	rest := payload[13:]
	// n is whatever the bytes say; every record costs its four length bytes,
	// so a count the payload cannot hold is refused before it sizes anything.
	if uint64(n) > uint64(len(rest)/4) {
		return 0, nil, errors.New("wal: record count exceeds data record size")
	}
	records = make([][]byte, 0, n)
	for i := uint32(0); i < n; i++ {
		if len(rest) < 4 {
			return 0, nil, errors.New("wal: truncated record length")
		}
		rl := binary.BigEndian.Uint32(rest[:4])
		rest = rest[4:]
		if uint64(len(rest)) < uint64(rl) {
			return 0, nil, errors.New("wal: truncated record body")
		}
		records = append(records, rest[:rl])
		rest = rest[rl:]
	}
	if len(rest) != 0 {
		return 0, nil, errors.New("wal: trailing bytes in data record")
	}
	return watermark, records, nil
}
