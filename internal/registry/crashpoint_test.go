package registry

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cdml/internal/core"
	"cdml/internal/snapstream"
	"cdml/internal/wal"
)

// The crash-point simulator kills a deployment at every I/O boundary its
// durable files cross — each create, write, fsync, rename, remove and
// directory fsync that goes through snapstream.Disk — and checks that what
// recovery brings back is exactly what was acknowledged.
//
// The power-loss model: a kill at boundary k fails that operation and every
// later one, so the dead process changes nothing more on disk; then every
// file is cut back to the length it had at its last fsync. A create, rename
// or remove counts as durable once it returns — a simplification: a real
// power cut can also lose a directory entry no directory fsync has covered
// yet.

var errPowerCut = errors.New("crash point: power cut")

// powerCut is the simulator's disk: it counts boundaries, fails the at-th
// and every later one (at 0: none), and keeps each file's durable length.
type powerCut struct {
	root string
	at   int
	dead atomic.Bool

	mu      sync.Mutex
	ops     []string         // each boundary crossed or failed, paths relative to root
	durable map[string]int64 // path → length at its last fsync
}

func newPowerCut(root string, at int) *powerCut {
	return &powerCut{root: root, at: at, durable: make(map[string]int64)}
}

func (p *powerCut) fault(op, path, to string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	rel, _ := filepath.Rel(p.root, path)
	p.ops = append(p.ops, op+" "+rel)
	if p.at > 0 && len(p.ops) >= p.at {
		p.dead.Store(true)
		return errPowerCut
	}
	switch op {
	case "create":
		p.durable[path] = 0
	case "fsync":
		// Asked before the fsync, after every write it covers.
		fi, err := os.Stat(path)
		if err != nil {
			return err
		}
		p.durable[path] = fi.Size()
	case "rename":
		p.durable[to] = p.durable[path]
		delete(p.durable, path)
	case "remove":
		delete(p.durable, path)
	}
	return nil
}

// cut loses what the power cut loses: every file under root goes back to
// its length at its last fsync.
func (p *powerCut) cut() error {
	return filepath.WalkDir(p.root, func(path string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		n, ok := p.durable[path]
		if !ok {
			return fmt.Errorf("%s was created outside snapstream.Disk", path)
		}
		return os.Truncate(path, n)
	})
}

// crashPlan is one seed's async-ingest run: after chunk i is appended, ticks
// consume the oldest appended chunks until at most ahead[i] wait; a rejected
// chunk is appended, then aborted, as a full queue makes handleIngest do.
type crashPlan struct {
	ahead  []int
	reject []bool
}

func newCrashPlan(seed int64, n int) crashPlan {
	rnd := rand.New(rand.NewSource(seed))
	p := crashPlan{ahead: make([]int, n), reject: make([]bool, n)}
	for i := range p.ahead {
		p.ahead[i] = rnd.Intn(4)
		p.reject[i] = rnd.Intn(4) == 0
	}
	return p
}

// rollingConfig is adamConfig with deployment "m"'s own ingest log under
// root, its segments small enough to roll and be pruned.
func rollingConfig(root string) core.Config {
	cfg := adamConfig()
	cfg.IngestLog = &wal.Options{Dir: filepath.Join(root, "m", "wal"), SegmentBytes: 1024}
	return cfg
}

// crashLife runs one life of the plan on opts' roots until it ends or the
// power is cut, and returns the live chunks it acknowledged, in sequence
// order: AppendIngestLog returned nil and no abort completed. An abort the
// power cut interrupted answered no 503, so its chunk counts as accepted.
func crashLife(t *testing.T, opts Options, p *powerCut, plan crashPlan, warm, live [][][]byte) (acked []int) {
	t.Helper()
	r := New(opts)
	defer r.Close()
	alive := func(err error) bool {
		if err != nil && !p.dead.Load() {
			t.Fatalf("failed with the power on: %v", err)
		}
		return !p.dead.Load()
	}
	d, _, err := r.CreateWarm("m", rollingConfig(opts.CheckpointRoot), Quotas{}, len(warm), from(warm))
	if !alive(err) {
		return nil
	}
	// Checkpoint pokes follow the tick count: the warm-up's publish is
	// the first count, and every CheckpointEvery-th count pokes the writer.
	counted := 1
	type queued struct {
		i   int
		seq uint64
	}
	var queue []queued
	tick := func() bool {
		q := queue[0]
		queue = queue[1:]
		if !alive(d.IngestLogged(context.Background(), live[q.i], time.Time{}, q.seq)) {
			return false
		}
		counted++
		if counted%opts.CheckpointEvery == 0 {
			// Wait for the write to finish or fail, so no file operation of
			// the next step races it and every k names the same boundary.
			v := d.Serving().Published().Version()
			for deadline := time.Now().Add(10 * time.Second); !p.dead.Load(); time.Sleep(50 * time.Microsecond) {
				if last, _ := d.Serving().LastCheckpoint(); last.Version >= v {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("the checkpoint of version %d never landed", v)
				}
			}
		}
		return alive(nil)
	}
	for i, c := range live {
		seq, err := d.AppendIngestLog(c)
		if !alive(err) {
			return acked
		}
		acked = append(acked, i)
		if plan.reject[i] {
			d.AbortIngestLog(seq)
			if !alive(nil) {
				return acked
			}
			acked = acked[:len(acked)-1]
			continue
		}
		queue = append(queue, queued{i, seq})
		for len(queue) > plan.ahead[i] {
			if !tick() {
				return acked
			}
		}
	}
	for len(queue) > 0 {
		if !tick() {
			return acked
		}
	}
	if st, _ := d.Serving().WALStats(); st.PrunedSegments == 0 && p.at == 0 {
		t.Fatalf("no ingest-log segment was pruned (%d segments left): the run misses the prune boundaries", st.Segments)
	}
	return acked
}

// TestChaosCrashPointAsyncIngest kills async ingest at every I/O boundary:
// a 3-chunk warm-up, then 12 chunks through AppendIngestLog → IngestLogged,
// some appended ahead of their tick and some rejected, at checkpoint cadences
// 1, 2 and 3 with ingest-log segments small enough to roll and be pruned.
// After each kill, CreateWarm on the same roots must come back at the
// version and payload bytes of a deployment fed the warm-up and exactly the
// acknowledged chunks.
func TestChaosCrashPointAsyncIngest(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test; run via `make chaos`")
	}
	chunks := stream(31, 15)
	warm, live := chunks[:3], chunks[3:]
	refs := map[string]snapstream.Frame{}
	reference := func(acked []int) snapstream.Frame {
		key := fmt.Sprint(acked)
		if f, ok := refs[key]; ok {
			return f
		}
		r := New(Options{})
		defer r.Close()
		d, _, err := r.CreateWarm("m", adamConfig(), Quotas{}, len(warm), from(warm))
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range acked {
			if err := d.Ingest(live[i]); err != nil {
				t.Fatal(err)
			}
		}
		f, err := d.Serving().Current().Frame()
		if err != nil {
			t.Fatal(err)
		}
		refs[key] = f
		return f
	}
	defer func() { snapstream.Disk.Fault = nil }()
	// Seeds 3 and 6 reject no chunk; 1 rejects chunks 3 and 4, 7 rejects 2,
	// 4 and 7, and 11 rejects 1 and 8.
	for _, tc := range []struct {
		every int
		seed  int64
	}{
		{1, 3}, {1, 11}, {2, 6}, {2, 1}, {3, 3}, {3, 7},
	} {
		t.Run(fmt.Sprintf("every=%d/seed=%d", tc.every, tc.seed), func(t *testing.T) {
			plan := newCrashPlan(tc.seed, len(live))
			life := func(at int) (*powerCut, []int) {
				root := t.TempDir()
				opts := Options{CheckpointRoot: root, CheckpointEvery: tc.every}
				p := newPowerCut(root, at)
				snapstream.Disk.Fault = p.fault
				acked := crashLife(t, opts, p, plan, warm, live)
				snapstream.Disk.Fault = nil
				return p, acked
			}
			whole, _ := life(0)
			t.Logf("K = %d boundaries", len(whole.ops))
			for k := 1; k <= len(whole.ops); k++ {
				p, acked := life(k)
				if len(p.ops) < k || !slices.Equal(p.ops[:k], whole.ops[:k]) {
					t.Fatalf("k=%d: the boundaries before the kill differ from the whole run's:\n%q\n%q", k, p.ops[:min(k, len(p.ops))], whole.ops[:k])
				}
				if err := p.cut(); err != nil {
					t.Fatal(err)
				}
				r := New(Options{CheckpointRoot: p.root, CheckpointEvery: tc.every})
				d, _, err := r.CreateWarm("m", rollingConfig(p.root), Quotas{}, len(warm), from(warm))
				if err != nil {
					r.Close()
					t.Fatalf("k=%d (%s): recovery failed: %v", k, p.ops[k-1], err)
				}
				got, err := d.Serving().Current().Frame()
				r.Close()
				if err != nil {
					t.Fatal(err)
				}
				want := reference(acked)
				if got.Version != want.Version || !bytes.Equal(got.Payload, want.Payload) {
					t.Fatalf("k=%d (%s): recovered version %d, want %d for acknowledged chunks %v; payloads equal: %v",
						k, p.ops[k-1], got.Version, want.Version, acked, bytes.Equal(got.Payload, want.Payload))
				}
			}
		})
	}
}
