package core

import (
	"fmt"
	"time"

	"cdml/internal/wal"
)

// This file wires the durable write-ahead ingest log (internal/wal) into
// the deployment: append on accept, commit on consume, sync before
// checkpoint, replay on recovery, prune with checkpoint retention. The
// ordering that makes replay exact:
//
//  1. The serve layer appends a chunk (fsync) before acking 202 —
//     AppendIngestLog — so an acknowledged chunk survives any crash.
//  2. The tick that consumes it buffers a commit record carrying the
//     publish version it is about to produce, under d.mu, *before*
//     publish() hands the snapshot to the checkpoint manager.
//  3. The checkpoint writer syncs the log before the checkpoint file
//     becomes durable: a checkpoint at version V on disk implies every
//     commit with version ≤ V is on disk too.
//  4. RecoverFromDir restores the newest checkpoint at V and replays
//     exactly the logged chunks with no commit or a commit > V — each
//     exactly once, in the original order — so the recovered model is
//     bit-identical to an uninterrupted run.

// openIngestLog opens the configured log and registers its cdml_wal_*
// metric series. Called from NewDeployer before the checkpoint loop
// starts.
func (d *Deployer) openIngestLog(opts wal.Options) error {
	l, err := wal.Open(opts)
	if err != nil {
		return err
	}
	d.wal = l
	labels := d.cfg.Labels
	reg := d.obs.reg
	reg.CounterFunc("cdml_wal_appends_total",
		"Chunks durably appended to the write-ahead ingest log (one per 202 ack).",
		func() float64 { return float64(l.Stats().Appends) }, labels...)
	reg.CounterFunc("cdml_wal_applied_total",
		"Ingest-log commit records written (logged chunks consumed by a tick).",
		func() float64 { return float64(l.Stats().Applied) }, labels...)
	reg.CounterFunc("cdml_wal_aborted_total",
		"Ingest-log abort records written (logged chunks rejected or failed; never replayed).",
		func() float64 { return float64(l.Stats().Aborted) }, labels...)
	reg.CounterFunc("cdml_wal_replayed_total",
		"Logged chunks replayed by the most recent recovery.",
		func() float64 { return float64(l.Stats().Replayed) }, labels...)
	reg.CounterFunc("cdml_wal_pruned_segments_total",
		"Ingest-log segments reclaimed by checkpoint-coupled retention.",
		func() float64 { return float64(l.Stats().PrunedSegments) }, labels...)
	reg.GaugeFunc("cdml_wal_segments",
		"Current ingest-log segment file count (including the active one).",
		func() float64 { return float64(l.Stats().Segments) }, labels...)
	reg.GaugeFunc("cdml_wal_bytes",
		"Current ingest-log on-disk size across all segments.",
		func() float64 { return float64(l.Stats().Bytes) }, labels...)
	reg.GaugeFunc("cdml_wal_unapplied",
		"Logged chunks not yet consumed by a tick — what a crash right now would replay.",
		func() float64 { return float64(l.Stats().Unapplied) }, labels...)
	return nil
}

// AppendIngestLog durably appends one accepted chunk to the write-ahead
// ingest log, stamped with the current published snapshot version as its
// watermark, and returns its log sequence number. The append is fsynced
// before returning — callers ack (202) only after it succeeds, so an
// acknowledged chunk survives a crash. Returns (0, nil) when the
// deployment has no ingest log; sequence 0 is the "not logged" sentinel
// throughout the ingest path.
func (d *Deployer) AppendIngestLog(records [][]byte) (uint64, error) {
	if d.wal == nil {
		return 0, nil
	}
	return d.wal.Append(records, d.snap.Load().version)
}

// AbortIngestLog marks a logged chunk as never-to-replay: its enqueue was
// rejected after the append succeeded, or its tick failed. Safe to call
// with the 0 sentinel. The abort record is fsynced before this returns, so
// the rejection a caller answers next survives a crash; if the record
// cannot be written, recovery replays the chunk (at-least-once for this
// disk-failure case) rather than losing it.
func (d *Deployer) AbortIngestLog(seq uint64) {
	if d.wal == nil || seq == 0 {
		return
	}
	_ = d.wal.MarkAborted(seq)
}

// WALStats reports the ingest log's counters; ok is false when the
// deployment has no write-ahead ingest log configured.
func (d *Deployer) WALStats() (wal.Stats, bool) {
	if d.wal == nil {
		return wal.Stats{}, false
	}
	return d.wal.Stats(), true
}

// ReplayIngestLog replays every logged, unconsumed chunk onto the current
// state — the cold-start recovery path when no checkpoint exists: run the
// usual warmup first (reproducing the original boot), then replay, and
// the state converges to the uninterrupted run's. When a checkpoint was
// recovered, RecoverFromDir has already replayed; calling this again is a
// no-op only if every record was committed during that replay, so use one
// path or the other. Returns the number of chunks replayed.
func (d *Deployer) ReplayIngestLog() (int, error) {
	return d.replayIngestLog(0)
}

// replayIngestLog re-ticks every logged chunk the checkpoint at
// ckptVersion does not cover, in append order (none without a log), with no
// abort-on-error: a transient failure fails recovery loudly instead of
// permanently dropping an acknowledged chunk.
func (d *Deployer) replayIngestLog(ckptVersion uint64) (int, error) {
	if d.wal == nil {
		return 0, nil
	}
	n, err := d.wal.Replay(ckptVersion, func(seq uint64, records [][]byte) error {
		return d.ingestTick(d.ctx, records, time.Time{}, seq)
	})
	if err != nil {
		return n, fmt.Errorf("core: ingest log replay: %w", err)
	}
	return n, nil
}
