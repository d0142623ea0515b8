package registry

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"cdml/internal/core"
	"cdml/internal/data"
	"cdml/internal/engine"
	"cdml/internal/model"
	"cdml/internal/obs"
	"cdml/internal/sample"
	"cdml/internal/snapstream"
)

// stream is a fixed chunk sequence, so a reference run and a restarted run
// can be fed exactly the same data.
func stream(seed int64, n int) [][][]byte {
	rnd := rand.New(rand.NewSource(seed))
	out := make([][][]byte, n)
	for i := range out {
		out[i] = chunk(rnd, 20)
	}
	return out
}

// ingestLogged is the async ingest path without the queue: durable append
// (the 202 ack point), then the consuming tick.
func ingestLogged(t *testing.T, d *Deployment, chunks [][][]byte) {
	t.Helper()
	for i, c := range chunks {
		seq, err := d.AppendIngestLog(c)
		if err != nil {
			t.Fatalf("append chunk %d: %v", i, err)
		}
		if err := d.IngestLogged(context.Background(), c, time.Time{}, seq); err != nil {
			t.Fatalf("logged ingest chunk %d: %v", i, err)
		}
	}
}

// from is chunks as a warm-up generator.
func from(chunks [][][]byte) func(int) [][]byte {
	return func(i int) [][]byte { return chunks[i] }
}

func warmOn(chunks [][][]byte) func(*Deployment) error {
	return func(d *Deployment) error {
		for _, c := range chunks {
			if err := d.Ingest(c); err != nil {
				return err
			}
		}
		return nil
	}
}

// resumeState is the deployment's whole state as bytes — its checkpoint
// payload: model, optimizer and pipeline statistics. Equal state is equal
// bytes (DESIGN.md §5n), so equal bytes mean a bit-identical trajectory.
func resumeState(t *testing.T, d *Deployment) []byte {
	t.Helper()
	f, err := d.Serving().Current().Frame()
	if err != nil {
		t.Fatal(err)
	}
	return f.Payload
}

// TestCreateRecoversElseWarmsThenReplays pins the boot order every door
// shares. With a checkpoint under the name: restore it, replay the log past
// it, never warm up. Without one: warm up, then replay the whole log. Either
// way the second life ends bit-identical to a run that was never
// interrupted, logged-but-unapplied chunks included.
func TestCreateRecoversElseWarmsThenReplays(t *testing.T) {
	chunks := stream(7, 12)
	warm, applied, queued, rest := chunks[:3], chunks[3:8], chunks[8:10], chunks[10:]

	refReg := New(Options{})
	defer refReg.Close()
	ref, err := refReg.Create("m", adamConfig(), Quotas{})
	if err != nil {
		t.Fatal(err)
	}
	if err := warmOn(chunks)(ref); err != nil {
		t.Fatal(err)
	}
	want := resumeState(t, ref)

	for _, tc := range []struct {
		name        string
		checkpoints bool
	}{
		{"checkpoint and log", true},
		{"log only", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			root := t.TempDir()
			opts := Options{WALRoot: root}
			if tc.checkpoints {
				opts.CheckpointRoot = root
				opts.CheckpointEvery = 3
			}

			r1 := New(opts)
			d1, _, err := r1.CreateWarm("m", adamConfig(), Quotas{}, len(warm), from(warm))
			if err != nil {
				t.Fatal(err)
			}
			ingestLogged(t, d1, applied)
			for _, c := range queued { // acked, never ticked: the queue at the kill
				if _, err := d1.AppendIngestLog(c); err != nil {
					t.Fatal(err)
				}
			}
			r1.Close()

			var warmed atomic.Bool // the generator runs on the engine's goroutines
			r2 := New(opts)
			defer r2.Close()
			d2, _, err := r2.CreateWarm("m", adamConfig(), Quotas{}, len(warm), func(i int) [][]byte {
				warmed.Store(true)
				return warm[i]
			})
			if err != nil {
				t.Fatal(err)
			}
			if warmed.Load() == tc.checkpoints {
				t.Fatalf("warmup ran = %v with checkpoints = %v", warmed.Load(), tc.checkpoints)
			}
			if got, want := d2.Serving().Published().Version(), uint64(1+len(warm)+len(applied)+len(queued)); got != want {
				t.Fatalf("second life is at version %d, want %d", got, want)
			}
			ingestLogged(t, d2, rest)
			if !bytes.Equal(resumeState(t, d2), want) {
				t.Fatal("second life is not bit-identical to the uninterrupted run")
			}
		})
	}
}

// TestWarmupTailSurvivesRestart: warmup chunks are in no log, so the end of
// the warmup must itself be a recovery point. Five warmup chunks at a
// cadence of four used to leave the newest checkpoint one chunk short, and
// a restart came back without the fifth.
func TestWarmupTailSurvivesRestart(t *testing.T) {
	root := t.TempDir()
	opts := Options{CheckpointRoot: root, WALRoot: root, CheckpointEvery: 4}
	chunks := stream(9, 6)
	r1 := New(opts)
	d1, _, err := r1.CreateWarm("m", adamConfig(), Quotas{}, 5, from(chunks))
	if err != nil {
		t.Fatal(err)
	}
	ingestLogged(t, d1, chunks[5:])
	want := resumeState(t, d1)
	r1.Close()

	r2 := New(opts)
	defer r2.Close()
	d2, err := r2.Create("m", adamConfig(), Quotas{})
	if err != nil {
		t.Fatal(err)
	}
	if got := d2.Serving().Published().Version(); got != 7 {
		t.Fatalf("second life is at version %d, want 7 (5 warmup chunks + 1 logged)", got)
	}
	if !bytes.Equal(resumeState(t, d2), want) {
		t.Fatal("second life is not bit-identical to the first at its kill")
	}
}

// TestCreateFailsOnUnusableCheckpoints: a name whose every checkpoint is
// torn must not silently cold-start over them.
func TestCreateFailsOnUnusableCheckpoints(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "m", "ckpt")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snapstream.FilePath(dir, 5), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	r := New(Options{CheckpointRoot: root})
	if _, err := r.Create("m", adamConfig(), Quotas{}); !errors.Is(err, ErrState) || errors.Is(err, core.ErrNoCheckpoint) {
		t.Fatalf("Create over a torn checkpoint: err = %v, want ErrState", err)
	}
	if _, ok := r.Get("m"); ok {
		t.Fatal("failed Create left the name registered")
	}
	// A config core rejects is the caller's mistake, not the state's.
	bad := adamConfig()
	bad.Store = nil
	if _, err := r.Create("n", bad, Quotas{}); err == nil || errors.Is(err, ErrState) {
		t.Fatalf("Create with a config core rejects: err = %v, want a plain error", err)
	}
}

// TestDeleteFreesANameStuckOnAPastLifesState: a deployment created at run
// time leaves directories no boot re-creates it from. When the next life's
// Create of that name fails on them — another pipeline's checkpoint — Delete
// of the unregistered name is the way out; it removes nothing for a name
// that is not one, and reports ErrUnknown when there was nothing to remove.
func TestDeleteFreesANameStuckOnAPastLifesState(t *testing.T) {
	ck, wl := t.TempDir(), t.TempDir()
	opts := Options{CheckpointRoot: ck, WALRoot: wl, CheckpointEvery: 1}
	r := New(opts)
	d, err := r.Create("exp", adamConfig(), Quotas{})
	if err != nil {
		t.Fatal(err)
	}
	ingestLogged(t, d, stream(5, 3))
	r.Close()

	r = New(opts)
	defer r.Close()
	other := adamConfig()
	other.NewModel = func() model.Model { return model.NewSVM(5, 1e-4) }
	if _, err := r.Create("exp", other, Quotas{}); !errors.Is(err, ErrState) {
		t.Fatalf("Create of another pipeline over exp's checkpoint: err = %v, want ErrState", err)
	}
	if err := r.Delete("ghost"); !errors.Is(err, ErrUnknown) {
		t.Fatalf("Delete of a name with no deployment and no state: %v, want ErrUnknown", err)
	}
	if err := r.Delete("../" + filepath.Base(wl)); !errors.Is(err, ErrUnknown) {
		t.Fatalf("Delete of a path: %v, want ErrUnknown", err)
	}
	if _, err := os.Stat(wl); err != nil {
		t.Fatalf("Delete of a path removed the log root: %v", err)
	}
	if err := r.Delete("exp"); err != nil {
		t.Fatalf("Delete of the unregistered name that owns directories: %v", err)
	}
	for _, dir := range []string{filepath.Join(ck, "exp"), filepath.Join(wl, "exp")} {
		if _, err := os.Stat(dir); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("Delete left %s behind (err %v)", dir, err)
		}
	}
	if d, err = r.Create("exp", other, Quotas{}); err != nil || d.Serving().Published().Version() != 1 {
		t.Fatalf("Create after Delete: %v, want a fresh deployment", err)
	}
}

// checkpointVersions lists the versions of the checkpoint files in dir,
// oldest first.
func checkpointVersions(t *testing.T, dir string) []uint64 {
	t.Helper()
	files, err := snapstream.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]uint64, len(files))
	for i, f := range files {
		out[len(files)-1-i] = f.Version
	}
	return out
}

// TestCheckpointCadenceComesFromOptions: a config that carries no policy —
// what the spec builder hands PUT and the challenger endpoints — checkpoints
// at the registry's cadence, champion and challenger alike, not at the core
// default of 8.
func TestCheckpointCadenceComesFromOptions(t *testing.T) {
	root := t.TempDir()
	r := New(Options{CheckpointRoot: root, CheckpointEvery: 2, CheckpointKeep: 10})
	d, err := r.Create("m", adamConfig(), Quotas{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.StartChallenger(adamConfig(), Policy{MinEvaluated: 1 << 40}); err != nil {
		t.Fatal(err)
	}
	chunks := stream(3, 4)
	if err := warmOn(chunks[:2])(d); err != nil {
		t.Fatal(err)
	}
	gens, _ := filepath.Glob(filepath.Join(root, "m", "gen*"))
	if len(gens) != 1 {
		t.Fatalf("challenger directories = %v, want 1", gens)
	}
	// A checkpoint writer takes the version published when it runs, so which
	// version a cadence checkpoint holds depends on scheduling: let both take
	// the due one before the next tick publishes another.
	for _, dep := range []*core.Deployer{d.Serving(), d.chal.Load().e.dep} {
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			if _, ok := dep.LastCheckpoint(); ok {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("no checkpoint after 2 ticks at a cadence of 2")
			}
		}
	}
	if err := warmOn(chunks[2:])(d); err != nil {
		t.Fatal(err)
	}
	r.Close() // drains both checkpoint writers
	for _, dir := range []string{filepath.Join(root, "m", "ckpt"), gens[0]} {
		// The first checkpoint is the telling one: a later one is coalesced
		// when the writer is still busy with the one before.
		if got := checkpointVersions(t, dir); len(got) == 0 || got[0] != 3 {
			t.Fatalf("%s holds versions %v, want the first at 3 (every 2 ticks)", dir, got)
		}
	}
}

// TestDeleteRemovesNameStateCloseKeepsIt: Close is the process stopping and
// must leave what the next life recovers; Delete frees the name, and whoever
// takes it next must not inherit a checkpoint or a log to replay.
func TestDeleteRemovesNameStateCloseKeepsIt(t *testing.T) {
	ck, wl := t.TempDir(), t.TempDir()
	opts := Options{CheckpointRoot: ck, WALRoot: wl, CheckpointEvery: 1}
	chunks := stream(5, 3)
	dirs := []string{filepath.Join(ck, "m"), filepath.Join(wl, "m")}

	r := New(opts)
	d, err := r.Create("m", adamConfig(), Quotas{})
	if err != nil {
		t.Fatal(err)
	}
	ingestLogged(t, d, chunks)
	r.Close()
	for _, dir := range dirs {
		if ents, err := os.ReadDir(dir); err != nil || len(ents) == 0 {
			t.Fatalf("Close did not leave %s in place (err %v)", dir, err)
		}
	}

	r = New(opts)
	if d, err = r.Create("m", adamConfig(), Quotas{}); err != nil {
		t.Fatal(err)
	}
	if got := d.Serving().Published().Version(); got != uint64(1+len(chunks)) {
		t.Fatalf("recreated after Close at version %d, want %d", got, 1+len(chunks))
	}
	if err := r.Delete("m"); err != nil {
		t.Fatal(err)
	}
	for _, dir := range dirs {
		if _, err := os.Stat(dir); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("Delete left %s behind (err %v)", dir, err)
		}
	}
	if d, err = r.Create("m", adamConfig(), Quotas{}); err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := d.Serving().Published().Version(); got != 1 {
		t.Fatalf("recreated after Delete at version %d, want a fresh deployment", got)
	}
}

// TestDeleteHoldsTheNameUntilItsDirectoriesAreGone: a Create that slips in
// between Delete unregistering the name and Delete removing its directories
// would open a log that is then unlinked under it. The old holder leaves
// enough files that removing them takes a while; the moment a racing Create
// gets the name, none of them may be left.
func TestDeleteHoldsTheNameUntilItsDirectoriesAreGone(t *testing.T) {
	root := t.TempDir()
	r := New(Options{CheckpointRoot: root, WALRoot: root})
	defer r.Close()
	if _, err := r.Create("hot", adamConfig(), Quotas{}); err != nil {
		t.Fatal(err)
	}
	junk := filepath.Join(root, "hot", "ckpt", "junk")
	if err := os.Mkdir(junk, 0o755); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		if err := os.WriteFile(filepath.Join(junk, strconv.Itoa(i)), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	deleted := make(chan error, 1)
	go func() { deleted <- r.Delete("hot") }()
	for {
		_, err := r.Create("hot", adamConfig(), Quotas{})
		if err == nil {
			break
		}
		if !errors.Is(err, ErrExists) {
			t.Fatal(err)
		}
		runtime.Gosched()
	}
	if _, err := os.Stat(junk); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Create got the name while its previous holder's files were still there (stat: %v)", err)
	}
	if err := <-deleted; err != nil {
		t.Fatal(err)
	}
}

// TestAutoChallengerFailureIsCounted: a drift fire whose challenger cannot
// be built arms the cooldown and starts nothing; the counter is the only
// trace it leaves.
func TestAutoChallengerFailureIsCounted(t *testing.T) {
	det := &fireDetector{}
	metrics := obs.NewRegistry()
	reg := New(Options{Metrics: metrics, AutoChallenger: &AutoChallenger{
		Build: func(name string) (core.Config, error) { return core.Config{}, errors.New("no spec recorded") },
	}})
	defer reg.Close()
	d, err := reg.Create("m", driftConfig(det), Quotas{})
	if err != nil {
		t.Fatal(err)
	}
	det.arm()
	if err := d.Ingest(chunk(rand.New(rand.NewSource(1)), 30)); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Challenger(); ok {
		t.Fatal("a challenger started from a failed build")
	}
	fails := metrics.Counter("cdml_auto_challenger_failures_total", "", obs.L("deployment", "m"))
	if got := fails.Value(); got != 1 {
		t.Fatalf("cdml_auto_challenger_failures_total = %d, want 1", got)
	}
}

// diesAt is a storage backend that dies at chunk id at: every PutRaw from
// there on fails.
type diesAt struct {
	data.Backend
	at data.Timestamp
}

var errStoreDied = errors.New("test: the store died")

func (b diesAt) PutRaw(rc data.RawChunk) error {
	if rc.ID >= b.at {
		return errStoreDied
	}
	return b.Backend.PutRaw(rc)
}

// TestChaosKillDuringWarmupRewarms: a warm-up is a batch, and a batch that
// died is run again. The first life's warm-up of 40 chunks dies at its 25th
// (its store dies: the deployment is closed without an end-of-warm-up
// checkpoint); the second life over the same directories, given the same
// generator, must end where a life that never died ends — version 1+40,
// the same state bytes, the same stored chunks — with the warm-up's end as
// its one checkpoint. When every warm-up chunk was a live tick, the first
// life left cadence checkpoints (versions 9, 17, …), and the second resumed
// from the newest and never trained on the chunks after it.
func TestChaosKillDuringWarmupRewarms(t *testing.T) {
	const n, died = 40, 24
	chunks := stream(13, n)
	proactive := func() (core.Config, *data.Store) {
		cfg := adamConfig()
		cfg.Mode, cfg.ProactiveEvery = core.ModeContinuous, 4
		cfg.Sampler, cfg.SampleChunks = sample.NewTime(1), 5
		return cfg, cfg.Store
	}
	workers := engine.New(2)

	refReg := New(Options{Engine: workers})
	defer refReg.Close()
	cfg, refStore := proactive()
	ref, _, err := refReg.CreateWarm("m", cfg, Quotas{}, n, from(chunks))
	if err != nil {
		t.Fatal(err)
	}

	root := t.TempDir()
	opts := Options{Engine: workers, CheckpointRoot: root, WALRoot: root, CheckpointEvery: 8}
	ckptDir := filepath.Join(root, "m", "ckpt")
	r1 := New(opts)
	cfg, _ = proactive()
	cfg.Store = data.NewStore(diesAt{Backend: data.NewMemoryBackend(), at: died})
	if _, _, err := r1.CreateWarm("m", cfg, Quotas{}, n, from(chunks)); !errors.Is(err, errStoreDied) {
		t.Fatalf("first life: err = %v, want the store's death to end the warm-up", err)
	}
	r1.Close()
	if got := checkpointVersions(t, ckptDir); len(got) != 0 {
		t.Fatalf("a warm-up that died after %d chunks left checkpoints %v: the next boot resumes inside it", died, got)
	}

	r2 := New(opts)
	defer r2.Close()
	cfg, store := proactive()
	d, boot, err := r2.CreateWarm("m", cfg, Quotas{}, n, from(chunks))
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Serving().Published().Version(); got != 1+n || boot.Recovered != 0 {
		t.Fatalf("second life is at version %d (recovered checkpoint %d), want a whole warm-up: version %d", got, boot.Recovered, 1+n)
	}
	if !bytes.Equal(resumeState(t, d), resumeState(t, ref)) {
		t.Fatal("second life is not bit-identical to an uninterrupted warm-up")
	}
	if !slices.Equal(store.RawIDs(), refStore.RawIDs()) {
		t.Fatalf("second life stored chunks %v, an uninterrupted warm-up %v", store.RawIDs(), refStore.RawIDs())
	}
	if got := checkpointVersions(t, ckptDir); !slices.Equal(got, []uint64{1 + n}) {
		t.Fatalf("checkpoints after a cold boot: %v, want the warm-up's end alone, version %d", got, 1+n)
	}
}

// TestBootReportsItsPhases: a boot says which way it went and what each
// phase cost, to its caller and as cdml_boot_seconds{deployment,phase}; a
// later boot of the name overwrites every phase, the ones it skipped with 0.
func TestBootReportsItsPhases(t *testing.T) {
	root := t.TempDir()
	opts := Options{Metrics: obs.NewRegistry(), CheckpointRoot: root, WALRoot: root}
	chunks := stream(4, 6)
	gauge := func(phase string) float64 {
		return opts.Metrics.Gauge("cdml_boot_seconds", "", obs.L("deployment", "m"), obs.L("phase", phase)).Value()
	}

	r := New(opts)
	_, cold, err := r.CreateWarm("m", adamConfig(), Quotas{}, len(chunks), from(chunks))
	if err != nil {
		t.Fatal(err)
	}
	if cold.Recovered != 0 || cold.Train <= 0 || cold.Checkpoint <= 0 || cold.GenerateWait < 0 {
		t.Fatalf("cold boot reported %+v, want a warm-up and its end checkpoint", cold)
	}
	if gauge("train") <= 0 || gauge("checkpoint") <= 0 {
		t.Fatalf("gauges train=%v checkpoint=%v do not carry the report %+v", gauge("train"), gauge("checkpoint"), cold)
	}
	r.Close()

	r = New(opts)
	defer r.Close()
	_, again, err := r.CreateWarm("m", adamConfig(), Quotas{}, len(chunks), from(chunks))
	if err != nil {
		t.Fatal(err)
	}
	if again.Recovered != uint64(1+len(chunks)) || again.Recover <= 0 || again.Train != 0 {
		t.Fatalf("second boot reported %+v, want a recovery of version %d and no warm-up", again, 1+len(chunks))
	}
	if gauge("train") != 0 || gauge("recover") <= 0 {
		t.Fatalf("gauges after a recovery: train=%v recover=%v", gauge("train"), gauge("recover"))
	}
}
