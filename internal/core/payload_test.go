package core

import (
	"bytes"
	"context"
	"errors"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"cdml/internal/flat"
	"cdml/internal/obs"
	"cdml/internal/opt"
	"cdml/internal/snapstream"
	"cdml/internal/wal"
)

// restorePayload applies a bare payload, framed at version 0: the next
// version, whatever d publishes.
func restorePayload(d *Deployer, payload []byte) error {
	return d.SnapshotSink().Apply(snapstream.Frame{Payload: payload})
}

// TestSnapshotPayloadIsDeterministic: equal state, equal bytes. One snapshot
// encodes to the same payload every time; so does every consumer's view of
// the version; and a twin rebuilt from the configuration and restored from
// the payload encodes to it again — pipeline statistics, which gob used to
// walk in map order, included. The payload is one allocation of exactly its
// size.
func TestSnapshotPayloadIsDeterministic(t *testing.T) {
	for _, workload := range []string{"url", "taxi"} {
		cfg, stream := v1Fixture(workload)
		d, err := NewDeployer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Shutdown()
		ingestChunks(t, d, stream, 0, 10)
		s := d.Current()
		first, err := s.payload()
		if err != nil {
			t.Fatal(err)
		}
		if len(first) != cap(first) {
			t.Fatalf("%s: a payload of %d bytes sits in an allocation of %d", workload, len(first), cap(first))
		}
		for i := 0; i < 20; i++ { // a map walk differs within a few tries
			again, err := s.payload()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, first) {
				t.Fatalf("%s: two encodes of one snapshot differ", workload)
			}
		}
		if f, _, err := d.FrameSince(0); err != nil || !bytes.Equal(f.Payload, first) {
			t.Fatalf("%s: FrameSince framed a different payload than the snapshot's (err %v)", workload, err)
		}
		if !bytes.Equal(alwaysCloneBytes(t, d), first) {
			t.Fatalf("%s: the live state between ticks encodes differently from its published snapshot", workload)
		}

		twinCfg, _ := v1Fixture(workload)
		twin, err := NewDeployer(twinCfg)
		if err != nil {
			t.Fatal(err)
		}
		defer twin.Shutdown()
		if err := restorePayload(twin, first); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(payloadBytes(t, twin), first) {
			t.Fatalf("%s: a rebuilt-then-restored twin encodes differently", workload)
		}
		// And they stay equal: the next tick moves both to the same bytes.
		ingestChunks(t, d, stream, 10, 11)
		ingestChunks(t, twin, stream, 10, 11)
		if next := payloadBytes(t, d); bytes.Equal(next, first) || !bytes.Equal(payloadBytes(t, twin), next) {
			t.Fatalf("%s: after one more tick the twin's payload is not the original's", workload)
		}
	}
}

// TestDamagedPayloadIsRefused: the decoder reads bytes it did not write. A
// payload torn anywhere, grown by a byte, or with any one bit flipped is
// either refused — a wrapped error, the serving snapshot untouched, never a
// panic — or, where the flip lands in the value bits of a number, restored
// to exactly the state those bytes spell.
func TestDamagedPayloadIsRefused(t *testing.T) {
	cfg, stream := v1Fixture("taxi") // small enough to flip every bit
	src, err := NewDeployer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Shutdown()
	ingestChunks(t, src, stream, 0, 6)
	good := payloadBytes(t, src)

	cfg, _ = v1Fixture("taxi")
	d, err := NewDeployer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	before := d.Published()
	refused := func(what string, b []byte) {
		t.Helper()
		err := restorePayload(d, b)
		if err == nil {
			t.Fatalf("%s was restored", what)
		}
		if !strings.HasPrefix(err.Error(), "core: ") {
			t.Fatalf("%s: error %q does not say which layer refused it", what, err)
		}
		if d.Published() != before {
			t.Fatalf("%s was refused but moved the serving snapshot", what)
		}
	}
	for n := 0; n < len(good); n++ {
		refused("a payload torn at byte "+strconv.Itoa(n), good[:n])
	}
	refused("a payload with a trailing byte", append(append([]byte(nil), good...), 0))
	refused("a payload under another tag", append([]byte("CDMLSNP3"), good[8:]...))
	// The payload ends with the one-hot encoder's last count; its sign bit
	// makes that a negative count, which no Observe produces.
	negative := append([]byte(nil), good...)
	negative[len(negative)-1] |= 0x80
	refused("a negative categorical count", negative)
	if err := restorePayload(d, negative); !strings.Contains(err.Error(), "has count -") {
		t.Fatalf("a negative categorical count was refused for another reason: %v", err)
	}
	accepted := 0
	for i := len(payloadTag); i < len(good); i++ {
		for bit := 0; bit < 8; bit++ {
			b := append([]byte(nil), good...)
			b[i] ^= 1 << bit
			if err := restorePayload(d, b); err != nil {
				if d.Published() != before {
					t.Fatalf("flip at %d.%d was refused but moved the serving snapshot", i, bit)
				}
				continue
			}
			accepted++
			if got := payloadBytes(t, d); !bytes.Equal(got, b) {
				t.Fatalf("flip at %d.%d was restored to a state that encodes differently from the bytes given", i, bit)
			}
			before = d.Published()
		}
	}
	if accepted == 0 {
		t.Fatal("no flipped bit landed in a number: the payload is not what this test thinks it is")
	}

	// A restore cannot ask for more memory than the state it replaces: a
	// model section claiming 2^60 weights, or an optimizer slot of them, is
	// refused on the count, before anything is sized from it.
	r := flat.NewReader(good[len(payloadTag):])
	kind := r.String()
	huge := flat.AppendString([]byte(payloadTag), kind)
	huge = flat.AppendUvarint(huge, 1<<60)
	refused("a model of 2^60 dimensions", append(huge, good[len(huge):]...))
	if err := restorePayload(d, good); err != nil {
		t.Fatalf("the undamaged payload: %v", err)
	}
}

// FuzzDecodeSnapshotPayload: any bytes through the restore path are an error
// that leaves the serving snapshot alone, or a state that encodes back to
// exactly those bytes.
func FuzzDecodeSnapshotPayload(f *testing.F) {
	deployers := map[string]*Deployer{}
	for _, workload := range []string{"url", "taxi"} {
		cfg, _ := v1Fixture(workload)
		d, err := NewDeployer(cfg)
		if err != nil {
			f.Fatal(err)
		}
		defer d.Shutdown()
		deployers[workload] = d
		f.Add(fixturePayload(f, "ckpt-v2-"+workload+".ckpt"))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		for workload, d := range deployers {
			before := d.Published()
			if err := restorePayload(d, in); err != nil {
				if d.Published() != before {
					t.Fatalf("%s: a refused payload moved the serving snapshot", workload)
				}
				continue
			}
			if out := payloadBytes(t, d); !bytes.Equal(out, in) {
				t.Fatalf("%s: accepted %x, re-encoded to %x", workload, in, out)
			}
		}
	})
}

// TestCheckpointWriterMetricsAndSpans: the writer reports what a checkpoint
// cost where an operator looks — cdml_checkpoint_encode_seconds from the
// encode stage it already times, cdml_checkpoint_bytes as the size of the
// newest durable frame — and records the span tree on failure too, with the
// failed encode stage finished, not left open.
func TestCheckpointWriterMetricsAndSpans(t *testing.T) {
	dir := t.TempDir()
	cfg := liveConfig(ModeOnline)
	cfg.Metrics = obs.NewRegistry()
	cfg.Labels = []obs.Label{obs.L("deployment", "m")}
	cfg.AutoCheckpoint = &CheckpointPolicy{Dir: dir, EveryTicks: 1 << 20}
	d, err := NewDeployer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	if v := d.ckpt.bytes.Value(); v != 0 {
		t.Fatalf("cdml_checkpoint_bytes = %v before the first write", v)
	}
	ingestChunks(t, d, driftStream{chunks: 4, rows: 20, drift: 2, seed: 5}, 0, 2)
	info, err := d.CheckpointNow()
	if err != nil {
		t.Fatal(err)
	}
	// The capture's d.mu hold leads the tree, before the encode.
	if sp := d.obs.tracer.Last(1)[0]; sp.Name != "checkpoint" || len(sp.Children) < 2 ||
		sp.Children[0].Name != "resume" || sp.Children[1].Name != "encode" || sp.Children[0].DurationNS <= 0 {
		t.Fatalf("checkpoint tree: %+v", sp)
	}
	st, err := os.Stat(info.Path)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.ckpt.bytes.Value(); got != float64(st.Size()) {
		t.Fatalf("cdml_checkpoint_bytes = %v, the file is %d bytes", got, st.Size())
	}
	if n := d.ckpt.encode.Count(); n != 1 {
		t.Fatalf("cdml_checkpoint_encode_seconds holds %d observations after one write", n)
	}
	var text bytes.Buffer
	if err := cfg.Metrics.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{`cdml_checkpoint_bytes{deployment="m"} `, `cdml_checkpoint_encode_seconds_count{deployment="m"} 1`} {
		if !strings.Contains(text.String(), series) {
			t.Fatalf("/v1/metrics lacks %q", series)
		}
	}

	// A snapshot that cannot be encoded: the write fails, and the recorded
	// tree shows an encode stage that ended and nothing after it.
	recorded := d.obs.tracer.Total()
	if _, err := d.ckpt.write(&Snapshot{version: 99, pipe: d.Published().pipe, mdl: d.Published().mdl}, obs.StartSpan("checkpoint")); !errors.Is(err, ErrResumeUnavailable) {
		t.Fatalf("writing a snapshot without resume state: %v", err)
	}
	if d.obs.tracer.Total() != recorded+1 {
		t.Fatal("the failed checkpoint recorded no span tree")
	}
	sp := d.obs.tracer.Last(1)[0]
	if sp.Name != "checkpoint" || len(sp.Children) != 1 || sp.Children[0].Name != "encode" {
		t.Fatalf("failed checkpoint's tree: %+v", sp)
	}
	if enc := sp.Children[0]; enc.DurationNS <= 0 || sp.DurationNS < enc.DurationNS {
		t.Fatalf("the failed encode stage was left open: encode %d ns in a checkpoint of %d ns", enc.DurationNS, sp.DurationNS)
	}
	if n := d.ckpt.encode.Count(); n != 1 {
		t.Fatalf("a failed encode was observed into the histogram (%d observations)", n)
	}
	if got := d.ckpt.bytes.Value(); got != float64(st.Size()) {
		t.Fatalf("a failed write moved cdml_checkpoint_bytes to %v", got)
	}
}

// TestPruneKeepsBudgetsAndTellsTheLog: retention by count and by bytes,
// oldest first and never the newest, from one directory listing, and the
// ingest log is pruned to the oldest survivor — the oldest state recovery
// could still start from. Each log segment holds one chunk and its commit,
// and chunk i commits at version i+2, so the segments pruned after a write
// are the chunks at or below the oldest survivor, bar the active segment's.
func TestPruneKeepsBudgetsAndTellsTheLog(t *testing.T) {
	dir := t.TempDir()
	cfg := liveConfig(ModeOnline)
	cfg.AutoCheckpoint = &CheckpointPolicy{Dir: dir, EveryTicks: 1 << 20, Keep: 3}
	cfg.IngestLog = &wal.Options{Dir: t.TempDir(), SegmentBytes: 1, NoSync: true}
	d, err := NewDeployer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	stream := driftStream{chunks: 12, rows: 20, drift: 2, seed: 5}
	var pruned []uint64
	// checkpointChunk ticks chunk i through the log, checkpoints, and notes
	// how many log segments retention has pruned so far.
	checkpointChunk := func(i int) CheckpointInfo {
		t.Helper()
		seq, err := d.AppendIngestLog(stream.Chunk(i))
		if err == nil {
			err = d.IngestLogged(context.Background(), stream.Chunk(i), time.Time{}, seq)
		}
		if err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
		info, err := d.CheckpointNow()
		if err != nil {
			t.Fatal(err)
		}
		st, _ := d.WALStats()
		pruned = append(pruned, st.PrunedSegments)
		return info
	}
	versions := func() []uint64 {
		t.Helper()
		files, err := snapstream.List(dir)
		if err != nil {
			t.Fatal(err)
		}
		var out []uint64
		for _, f := range files {
			out = append(out, f.Version)
		}
		return out
	}
	var size int64
	for i := 0; i < 5; i++ {
		st, err := os.Stat(checkpointChunk(i).Path)
		if err != nil {
			t.Fatal(err)
		}
		size = st.Size()
	}
	if got := versions(); !slices.Equal(got, []uint64{6, 5, 4}) {
		t.Fatalf("Keep 3 left versions %v, want [6 5 4]", got)
	}
	// Oldest survivors 2, 2, 2, 3, 4.
	if !slices.Equal(pruned, []uint64{0, 1, 1, 2, 3}) {
		t.Fatalf("the log pruned %v segments after each write, want [0 1 1 2 3]: the chunks the oldest survivor covers", pruned)
	}
	// A byte budget of two files and a bit: the third-newest goes.
	d.ckpt.pol.MaxBytes = 2*size + size/2
	checkpointChunk(5)
	if got := versions(); !slices.Equal(got, []uint64{7, 6}) {
		t.Fatalf("a budget of 2.5 files left versions %v, want [7 6]", got)
	}
	// A budget smaller than one file bounds history, not the existence of a
	// recovery point.
	d.ckpt.pol.MaxBytes = 1
	checkpointChunk(6)
	if got := versions(); !slices.Equal(got, []uint64{8}) {
		t.Fatalf("a one-byte budget left versions %v, want the newest alone", got)
	}
	// Oldest survivors 6, then 8.
	if got := pruned[len(pruned)-2:]; !slices.Equal(got, []uint64{5, 6}) {
		t.Fatalf("under the byte budgets the log pruned %v segments, want [5 6]", got)
	}
}

// An optimizer of the caller's own has no encoding: ticks and serving go on,
// every on-demand consumer gets the reason, and the cadence counts the
// checkpoints it could not write.
func TestOptimizerWithoutEncoding(t *testing.T) {
	cfg := liveConfig(ModeOnline)
	cfg.NewOptimizer = func() opt.Optimizer { return ownOptimizer{opt.NewSGD(0.1)} }
	cfg.AutoCheckpoint = &CheckpointPolicy{Dir: t.TempDir(), EveryTicks: 1}
	d, err := NewDeployer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ingestChunks(t, d, driftStream{chunks: 4, rows: 20, drift: 2, seed: 5}, 0, 3)
	if _, err := d.CheckpointNow(); err == nil || !strings.Contains(err.Error(), "unknown optimizer type") {
		t.Fatalf("CheckpointNow: %v, want the optimizer's type named", err)
	}
	if _, err := d.Current().Frame(); !errors.Is(err, ErrResumeUnavailable) {
		t.Fatalf("Frame of a snapshot that could not capture resume state: %v", err)
	}
	d.Shutdown()
	if d.ckpt.writes.Value() != 0 || d.ckpt.errs.Value() == 0 {
		t.Fatalf("cadence checkpoints: %d written, %d failed; want none written and the failures counted",
			d.ckpt.writes.Value(), d.ckpt.errs.Value())
	}
}

type ownOptimizer struct{ *opt.SGD }
