package core

import (
	"context"
	"fmt"
	"time"

	"cdml/internal/engine"
)

// Ingest feeds one chunk of labeled training data into the deployment: the
// chunk is prequentially scored against the deployed model, used for online
// learning, stored, and — per strategy — may trigger proactive training or a
// periodical retraining. Ingest is the
// serialized writer of the snapshot architecture: ticks run one at a time
// under d.mu and end by publishing a fresh immutable Snapshot for the
// lock-free readers (see reader.go). A failed tick publishes nothing, so
// readers never observe a half-applied tick. Safe for concurrent use with
// Predict and Stats.
//
//cdml:detached convenience entry point for context-free callers; request paths use IngestLogged
func (d *Deployer) Ingest(records [][]byte) error {
	return d.IngestLogged(context.Background(), records, time.Time{}, 0)
}

// IngestLogged is the one live ingest entry point; Ingest is its
// context-free convenience form. When ctx carries an obs.Span (see
// obs.ContextWithSpan), the tick's span tree inherits its trace and request
// ids, so the tick shows up under .../trace?id=<trace id> next to the HTTP
// request that caused it. enqueuedAt is when the chunk entered an async
// queue (zero = not queued): the wait is recorded as a leading "queue-wait"
// child of the tick span, so an end-to-end trace explains queue time
// separately from training time. walSeq is the sequence number
// AppendIngestLog returned when the chunk was accepted (0 = not logged): a
// successful tick commits it with the publish version it produced; a failed
// tick aborts it — failed ticks are surfaced, not retried, and replaying
// one on recovery would diverge from the uninterrupted run.
func (d *Deployer) IngestLogged(ctx context.Context, records [][]byte, enqueuedAt time.Time, walSeq uint64) error {
	err := d.ingestTick(ctx, records, enqueuedAt, walSeq)
	if err != nil {
		d.AbortIngestLog(walSeq)
	}
	return err
}

// ingestTick executes one serialized live tick (see Ingest for
// semantics): the tick body, then the publish of what it trained.
func (d *Deployer) ingestTick(ctx context.Context, records [][]byte, enqueuedAt time.Time, walSeq uint64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.tickBody(ctx, records, enqueuedAt, walSeq); err != nil {
		return err
	}
	d.publishTick()
	d.endTick()
	return nil
}

// tickBody is a live tick up to its publish: parse, score, learn, store,
// schedule, account. The chunk is parsed once — the parser and the
// pipeline's stateless head — and both passes start from that frame (see
// pipeline.Parsed). walSeq, when nonzero, is the chunk's write-ahead ingest log
// sequence number: a successful body buffers a commit record carrying the
// publish version its caller is about to produce — under d.mu and before
// publish(), so the commit provably happens before the snapshot can reach
// the checkpoint writer (whose pre-write log sync makes it durable). It
// opens the tick's span tree and closes it only when it fails; a caller
// that succeeds closes it (endTick) after its publish.
//
//cdml:locked mu — ingestTick and batchTick hold d.mu around it
func (d *Deployer) tickBody(ctx context.Context, records [][]byte, enqueuedAt time.Time, walSeq uint64) (err error) {
	res := d.result
	d.beginTick(ctx)
	defer func() {
		if err != nil {
			d.endTick()
		}
	}()
	if !enqueuedAt.IsZero() {
		// The wait ended where the tick began: recorded, not timed.
		d.tickSpan.AddChild("queue-wait", enqueuedAt, d.tickSpan.Start.Sub(enqueuedAt))
	}
	in, err := d.parse(records)
	if err == nil {
		err = d.serveAndScore(records, in)
	}
	if err == nil {
		err = d.ingest(records, in)
	}
	if err != nil {
		return err
	}
	// x is chunk time: the chunks trained so far, this one included.
	x := float64(int64(d.cfg.InitialChunks) + res.Chunks + 1)
	res.ErrorCurve.Append(x, d.cfg.Metric.Value())
	res.CostCurve.Append(x, d.cost.Total().Seconds())
	if walSeq != 0 && d.wal != nil {
		// The caller's publish() assigns publishSeq+1; committing that version
		// here, before the publish, is what makes the checkpoint writer's log
		// sync cover every consumed chunk (see internal/core/wal.go).
		if err := d.wal.MarkApplied(walSeq, d.publishSeq+1); err != nil {
			return fmt.Errorf("core: ingest log commit: %w", err)
		}
	}
	res.Chunks++
	return nil
}

// Warm is the deployment's initial training as one batch: n ticks over
// chunk(0) … chunk(n-1), each scored, learned from, stored and scheduled
// exactly as Ingest would, and one publish at the end, at the version n
// Ingest calls would have reached (version − 1 stays the number of chunks
// trained). What the n − 1 publishes in between would have bought — a
// snapshot for readers, a cadence checkpoint to resume from — a deployment
// nobody serves from yet has no use for: its chunks can be generated again,
// so a warm-up that dies is started over, not resumed. The checkpoint
// cadence is consulted at that one publish only.
//
// chunk runs on the deployment's engine — the one thing a deployment runs
// there — up to 2·Workers() chunks ahead of the tick that consumes them and
// never under d.mu; it must be safe to call from several goroutines. A
// failed tick stops it and publishes nothing — encoders keep getting the
// version before the warm-up — and Shutdown ends a warm-up between two
// ticks. The chunks are in no ingest log and reach no shadow challenger:
// warm a deployment before anything reads from it. The returned duration is
// what the ticks took; the rest of the call was the training goroutine
// waiting for chunk.
func (d *Deployer) Warm(n int, chunk func(i int) [][]byte) (time.Duration, error) {
	var ticks time.Duration
	err := engine.StreamCtx(d.ctx, d.cfg.Engine, n, chunk, func(i int, records [][]byte) error {
		start := time.Now()
		defer func() { ticks += time.Since(start) }()
		if err := d.batchTick(records, i, n); err != nil {
			return fmt.Errorf("warm-up chunk %d: %w", i, err)
		}
		return nil
	})
	return ticks, err
}

// batchTick is tick i of a batch of n (Run, Warm): the tick body under d.mu
// and, after the last, the batch's one publish, at the version n Ingest calls
// would have reached.
func (d *Deployer) batchTick(records [][]byte, i, n int) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.tickBody(d.ctx, records, time.Time{}, 0); err != nil {
		return err
	}
	if i == n-1 {
		d.publishSeq += uint64(n - 1) // publish() adds the nth
		d.publishTick()
	}
	d.endTick()
	return nil
}
