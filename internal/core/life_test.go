package core_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cdml/internal/core"
	"cdml/internal/data"
	"cdml/internal/dataset"
	"cdml/internal/eval"
	"cdml/internal/linalg"
	"cdml/internal/model"
	"cdml/internal/opt"
	"cdml/internal/pipeline"
	"cdml/internal/registry"
	"cdml/internal/sample"
	"cdml/internal/snapstream"
	"cdml/internal/wal"
)

// The life generator: one seeded sequence of steps, run on a registry
// deployment "m" with cadence checkpoints as the serve layer runs one, and
// checked two ways against a sequential reference fed the same steps.
//
//   - Readers (checkReaders): while the steps run, readers of the deployment
//     and of a replica that applies its frames must answer at every
//     (generation, version) exactly what the reference answers there: the
//     pipeline and the weights of one snapshot, never a mix (paper §4.3).
//     Every frame taken and every cadence checkpoint file must be the
//     reference's frame of its version, byte for byte.
//   - Power cut (checkPowerCut): the k-th snapstream.Disk boundary fails,
//     for every k. CreateWarm on the same roots must then come back equal to
//     the reference fed the warm-up and exactly the acknowledged chunks.

// kind is what a step does.
type kind int

const (
	ingestAsync kind = iota // appended to the ingest log (the 202), queued, ticked once more than ahead wait
	ingestSync              // a tick on a deployment with no ingest log
	ingestTrain             // /train's path on a logged deployment: a tick in no log (ROADMAP item 1B)
	restore                 // a live restore of the version back before the published one (item 1C)
	challenge               // a challenger that promoteAfterThree promotes (item 1C)
)

// step is one step; a rejected async chunk is appended, then aborted, as a
// full queue makes handleIngest do.
type step struct {
	kind   kind
	chunk  int // the stream index an ingest step carries
	ahead  int
	reject bool
	back   uint64
}

// workload is a deployment config and its stream; config builds a fresh
// config (its own store) per call.
type workload struct {
	name   string
	config func() core.Config
	chunk  func(i int) [][]byte
}

// life is one configuration of the generator. Chunks 0…warm-1 warm the
// deployment up; the readers predict chunk probe.
type life struct {
	w             workload
	logged        bool
	warm, every   int
	probe         int
	steps         []step
	newChallenger func() core.Config
}

// promoteAfterThree promotes any challenger once both recent losses have
// seen 60 records: the check is about the swap, not the verdict.
var promoteAfterThree = registry.Policy{MinEvaluated: 60, Margin: -2, MaxShadowTicks: -1}

// config is what every workload starts from: Adam, a time-biased sampler
// and a count cadence, so a life is a pure function of its chunks. It
// answers with the raw score, where a ±1 label would hide a torn read.
func config(mode core.Mode, lr float64, pipe func() *pipeline.Pipeline, mdl func() model.Model, metric eval.Metric) core.Config {
	return core.Config{Mode: mode, NewPipeline: pipe, NewModel: mdl,
		NewOptimizer: func() opt.Optimizer { return opt.NewAdam(lr) },
		Store:        data.NewStore(data.NewMemoryBackend()), Sampler: sample.NewTime(1), SampleChunks: 5,
		ProactiveEvery: 2, RetrainEvery: 20, WarmStart: true, Metric: metric,
		Predict: core.RegressionPredictor, Seed: 1}
}

// oracleWorkloads are URL and Taxi, both continuous with proactive training.
func oracleWorkloads() []workload {
	const urlDim = 1 << 12
	u := dataset.DefaultURLConfig()
	u.Days, u.ChunksPerDay, u.RowsPerChunk, u.Vocab, u.HashDim = 10, 10, 40, 2000, urlDim
	tx := dataset.DefaultTaxiConfig()
	tx.Chunks, tx.RowsPerChunk = 100, 40
	return []workload{
		{"url", func() core.Config {
			return config(core.ModeContinuous, 0.05, func() *pipeline.Pipeline { return dataset.NewURLPipeline(urlDim) },
				func() model.Model { return dataset.NewURLModel(urlDim, 1e-3) }, &eval.Misclassification{})
		}, dataset.NewURL(u).Chunk},
		{"taxi", func() core.Config {
			return config(core.ModeContinuous, 0.05, dataset.NewTaxiPipeline,
				func() model.Model { return dataset.NewTaxiModel(1e-4) }, &eval.RMSE{})
		}, dataset.NewTaxi(tx).Chunk},
	}
}

// TestStoredFeaturesAreThePublishedServePath is the oracle's training half
// (paper §3.1): the statistics a tick's online transform used are the ones
// its Update produced for that chunk. After every tick of the url and taxi
// deployments, the feature chunk the tick stored equals ProcessServe of the
// tick's records through the pipeline of the snapshot the tick published
// (decoded from its frame), bit for bit.
func TestStoredFeaturesAreThePublishedServePath(t *testing.T) {
	for _, w := range oracleWorkloads() {
		t.Run(w.name, func(t *testing.T) {
			cfg := w.config()
			d, err := core.NewDeployer(cfg)
			published, err2 := core.NewDeployer(w.config()) // applies each tick's frame
			if err = errors.Join(err, err2); err != nil {
				t.Fatal(err)
			}
			defer d.Shutdown()
			defer published.Shutdown()
			for i := 0; i < 24; i++ {
				if err := d.Ingest(w.chunk(i)); err != nil || d.Published().Version() != uint64(i+2) {
					t.Fatalf("tick %d published version %d (err %v), want %d", i, d.Published().Version(), err, i+2)
				}
				ids := cfg.Store.RawIDs()
				stored, ok, err := cfg.Store.Features(ids[len(ids)-1])
				if err != nil || !ok {
					t.Fatalf("tick %d: the tick's feature chunk is not stored (err %v)", i, err)
				}
				if err := published.SnapshotSink().Apply(frameOf(t, d)); err != nil {
					t.Fatal(err)
				}
				want, err := published.Pipeline().ProcessServe(w.chunk(i))
				if err == nil {
					err = sameInstanceBits(stored, want)
				}
				if err != nil {
					t.Fatalf("tick %d: stored features are not the serve path of version %d: %v", i, i+2, err)
				}
			}
		})
	}
}

// sameInstanceBits reports how two instance slices differ: in length, in a
// label's bits, or in a feature vector's kind, dimension, indices or value
// bits.
func sameInstanceBits(got, want []data.Instance) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d instances, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i].Y) != math.Float64bits(want[i].Y) {
			return fmt.Errorf("instance %d: label %v, want %v", i, got[i].Y, want[i].Y)
		}
		switch w := want[i].X.(type) {
		case *linalg.Sparse:
			g, ok := got[i].X.(*linalg.Sparse)
			if !ok || g.N != w.N || !slices.Equal(g.Idx, w.Idx) || !sameBits(g.Val, w.Val) {
				return fmt.Errorf("instance %d: features %v, want %v", i, got[i].X, w)
			}
		case linalg.Dense:
			g, ok := got[i].X.(linalg.Dense)
			if !ok || !sameBits(g, w) {
				return fmt.Errorf("instance %d: features %v, want %v", i, got[i].X, w)
			}
		default:
			return fmt.Errorf("instance %d: features of kind %T", i, w)
		}
	}
	return nil
}

// svmParser parses "label,x0,x1".
type svmParser struct{}

func (svmParser) Name() string { return "svm" }

func (svmParser) Parse(records [][]byte) (*data.Frame, error) {
	var cols [3][]float64
	for _, rec := range records {
		for i, field := range strings.SplitN(string(rec), ",", 3) {
			v, err := strconv.ParseFloat(field, 64)
			if err != nil {
				return nil, err
			}
			cols[i] = append(cols[i], v)
		}
	}
	f := data.NewFrame(len(cols[0]))
	for i, name := range []string{"label", "x0", "x1"} {
		f.SetFloat(name, cols[i])
	}
	return f, nil
}

// svmLife is an online 2-feature SVM: a 3-chunk warm-up, then steps over
// chunks 3…14 of 20 "label,x0,x1" records (y = sign(x0+x1)) drawn from
// one seeded source; chunk 15 is the probe.
func svmLife(logged bool, every int, steps []step) life {
	rnd := rand.New(rand.NewSource(31))
	chunks := make([][][]byte, 16)
	for i := range chunks {
		for range 20 {
			x0, x1 := rnd.NormFloat64(), rnd.NormFloat64()
			y := "+1"
			if x0+x1 < 0 {
				y = "-1"
			}
			chunks[i] = append(chunks[i], fmt.Appendf(nil, "%s,%.6f,%.6f", y, x0, x1))
		}
	}
	svm := func(lr float64) func() core.Config {
		return func() core.Config {
			return config(core.ModeOnline, lr, func() *pipeline.Pipeline {
				return pipeline.New(svmParser{}, pipeline.NewStandardScaler([]string{"x0", "x1"}),
					pipeline.NewAssembler([]string{"x0", "x1"}, nil, "features"))
			}, func() model.Model { return model.NewSVM(2, 1e-4) }, &eval.Misclassification{})
		}
	}
	w := workload{"svm", svm(0.05), func(i int) [][]byte { return chunks[i] }}
	return life{w: w, logged: logged, warm: 3, every: every, probe: 15, steps: steps, newChallenger: svm(0.2)}
}

// plan is n steps of kind k over chunks 3… on; async, it is the crash-point
// simulator's life of seed: each draws its look-ahead and whether it is
// rejected.
func plan(k kind, seed int64, n int) []step {
	rnd := rand.New(rand.NewSource(seed))
	steps := make([]step, n)
	for i := range steps {
		steps[i] = step{kind: k, chunk: 3 + i, ahead: rnd.Intn(4), reject: rnd.Intn(4) == 0}
	}
	return steps
}

// chaos skips t under -short (`make chaos` runs it) and runs it in parallel.
func chaos(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test; run via `make chaos`")
	}
	t.Parallel()
}

// TestChaosPredictAnswersOneVersion: URL and Taxi with cadence checkpoints
// every tick and at the default cadence, 40 ticks, and before the 21st a
// live restore of the frame after the 8th. Readers only: proactive training
// is off the crash-exact contract (ROADMAP item 22).
func TestChaosPredictAnswersOneVersion(t *testing.T) {
	chaos(t)
	var steps []step
	for i := 0; i < 40; i++ {
		if i == 20 {
			steps = append(steps, step{kind: restore, back: 12})
		}
		steps = append(steps, step{kind: ingestSync, chunk: i})
	}
	for _, w := range oracleWorkloads() {
		for _, every := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/every=%d", w.name, every), func(t *testing.T) {
				t.Parallel()
				checkReaders(t, life{w: w, every: every, probe: 45, steps: steps})
			})
		}
	}
}

// TestChaosCrashPointAsyncIngest: 12 chunks through AppendIngestLog →
// IngestLogged, some appended ahead of their tick and some rejected, at
// checkpoint cadences 1, 2 and 3, with ingest-log segments small enough to
// roll and be pruned. Seeds 3 and 6 reject no step; 1 rejects steps 3 and
// 4, 7 rejects 2, 4 and 7, and 11 rejects 1 and 8.
func TestChaosCrashPointAsyncIngest(t *testing.T) {
	chaos(t)
	for _, tc := range []struct {
		every int
		seed  int64
	}{{1, 3}, {1, 11}, {2, 6}, {2, 1}, {3, 3}, {3, 7}} {
		t.Run(fmt.Sprintf("every=%d/seed=%d", tc.every, tc.seed), func(t *testing.T) {
			t.Parallel()
			l := svmLife(true, tc.every, plan(ingestAsync, tc.seed, 12))
			checkReaders(t, l)
			checkPowerCut(t, l)
		})
	}
}

// TestChaosCrashPointSyncIngest: 12 ticks on a deployment with no ingest
// log, checkpointed every 3 ticks.
func TestChaosCrashPointSyncIngest(t *testing.T) {
	chaos(t)
	l := svmLife(false, 3, plan(ingestSync, 0, 12))
	checkReaders(t, l)
	checkPowerCut(t, l)
}

// TestChaosKillWithQueuedIngest: every chunk ticks five appends after its
// own, so a cut at any boundary finds up to five acknowledged chunks in the
// ingest log and not yet ticked. Recovery must replay each exactly once.
func TestChaosKillWithQueuedIngest(t *testing.T) {
	chaos(t)
	steps := plan(ingestAsync, 0, 12)
	for i := range steps {
		steps[i].ahead, steps[i].reject = 5, false
	}
	checkPowerCut(t, svmLife(true, 3, steps))
}

// TestChaosAutoCheckpointConcurrentWithIngest: a checkpoint per tick, two
// kept, written beside ticks that never wait for it (run under -race). The
// newest file left must recover to the reference's frame of its version.
func TestChaosAutoCheckpointConcurrentWithIngest(t *testing.T) {
	chaos(t)
	l := svmLife(false, 1, plan(ingestSync, 0, 12))
	rec, root := l.reference(t), t.TempDir()
	r := registry.New(registry.Options{CheckpointRoot: root, CheckpointEvery: 1, CheckpointKeep: 2})
	d, _, err := l.create(r, root)
	if err != nil {
		t.Fatal(err)
	}
	l.drive(t, d, nil, hooks{})
	r.Close()
	list, err := snapstream.List(filepath.Join(root, "m", "ckpt"))
	if err != nil || len(list) == 0 || len(list) > 2 {
		t.Fatalf("checkpoints left: %v (err %v), want one or two", list, err)
	}
	r = registry.New(registry.Options{CheckpointRoot: root, CheckpointEvery: 1 << 20})
	defer r.Close()
	if d, boot, err := l.create(r, root); err != nil || boot.Recovered != list[0].Version {
		t.Fatalf("recovered version %d (err %v), want the newest checkpoint's %d", boot.Recovered, err, list[0].Version)
	} else if f := frameOf(t, d.Serving()); !bytes.Equal(f.Payload, rec.frame[f.Version]) {
		t.Fatalf("recovered version %d is not the reference's", f.Version)
	}
}

// TestChaosLifeHoles runs item 1's holes in async lives of seed 5: a third
// of the chunks through /train, a live restore, a promotion. Each is
// checked by the readers; its power cut waits for the fix.
func TestChaosLifeHoles(t *testing.T) {
	chaos(t)
	for _, h := range []struct {
		name string
		kind kind
		skip string
	}{
		{"train", ingestTrain, "ROADMAP item 1B: /train's chunks are in no log"},
		{"restore", restore, "ROADMAP item 1C: a live restore has no log record"},
		{"promotion", challenge, "ROADMAP item 1C: recovery comes back on the Create lineage, not the promoted one"},
	} {
		t.Run(h.name, func(t *testing.T) {
			t.Parallel()
			steps, rnd := plan(ingestAsync, 5, 12), rand.New(rand.NewSource(5))
			if h.kind == ingestTrain {
				for i := range steps {
					if rnd.Intn(3) == 0 {
						steps[i].kind = ingestTrain
					}
				}
			} else {
				steps = slices.Insert(steps, 1+rnd.Intn(6), step{kind: h.kind, back: 1 + uint64(rnd.Intn(4))})
			}
			checkReaders(t, svmLife(true, 2, steps))
			t.Run("power-cut", func(t *testing.T) { t.Skip(h.skip) })
		})
	}
}

// create builds the life's deployment "m" in r and warms it up; under a
// root, a logged life gets its ingest log there.
func (l *life) create(r *registry.Registry, root string) (*registry.Deployment, registry.Boot, error) {
	cfg := l.w.config()
	if l.logged && root != "" {
		cfg.IngestLog = &wal.Options{Dir: filepath.Join(root, "m", "wal"), SegmentBytes: 1024}
	}
	var warm func(int) [][]byte
	if l.warm > 0 {
		warm = l.w.chunk
	}
	return r.CreateWarm("m", cfg, registry.Quotas{}, l.warm, warm)
}

// hooks are what a run adds to drive: settle waits for each cadence
// checkpoint to land or fail, so no file operation of the next step races
// it and every k names the same boundary.
type hooks struct {
	settle  bool
	ticked  func(i int)       // after each tick
	stepped func(s int)       // after each step
	frames  map[uint64][]byte // the reference's, to restore
}

// drive runs l's steps on d and returns the chunks acknowledged, in order:
// an async chunk once AppendIngestLog returned and no abort completed (an
// abort the power cut interrupted answered no 503), any other once its tick
// returned. It stops when alive reports the power out; nil alive is a life
// with the power on, where every error is fatal.
func (l *life) drive(t *testing.T, d *registry.Deployment, alive func(error) bool, h hooks) (acked []int) {
	t.Helper()
	if alive == nil {
		alive = func(err error) bool {
			if err != nil {
				t.Fatal(err)
			}
			return true
		}
	}
	counted := 1 // the warm-up's publish is the first count of the cadence
	tick := func(i int, seq uint64) bool {
		if !alive(d.IngestLogged(context.Background(), l.w.chunk(i), time.Time{}, seq)) {
			return false
		}
		if seq == 0 {
			acked = append(acked, i)
		}
		if h.ticked != nil {
			h.ticked(i)
		}
		if counted++; h.settle && counted%l.every == 0 {
			v := d.Serving().Published().Version()
			for deadline := time.Now().Add(10 * time.Second); alive(nil); time.Sleep(50 * time.Microsecond) {
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
	var queue [][2]uint64 // chunk, log sequence
	drain := func(n int) bool {
		for ; len(queue) > n; queue = queue[1:] {
			if !tick(int(queue[0][0]), queue[0][1]) {
				return false
			}
		}
		return true
	}
	for s, st := range l.steps {
		switch st.kind {
		case ingestAsync:
			seq, err := d.AppendIngestLog(l.w.chunk(st.chunk))
			if !alive(err) {
				return acked
			}
			acked = append(acked, st.chunk)
			if st.reject {
				if d.AbortIngestLog(seq); !alive(nil) {
					return acked
				}
				acked = acked[:len(acked)-1]
				break
			}
			if queue = append(queue, [2]uint64{uint64(st.chunk), seq}); !drain(st.ahead) {
				return acked
			}
		case ingestSync, ingestTrain:
			if !tick(st.chunk, 0) {
				return acked
			}
		case restore:
			dep := d.Serving()
			v := max(dep.Published().Version()-st.back, uint64(1+l.warm))
			if err := dep.SnapshotSink().Apply(snapstream.Frame{Version: v, Payload: h.frames[v]}); err != nil {
				t.Fatalf("restoring version %d: %v", v, err)
			}
		case challenge:
			if err := d.StartChallenger(l.newChallenger(), promoteAfterThree); err != nil {
				t.Fatal(err)
			}
		}
		if h.stepped != nil {
			h.stepped(s)
		}
	}
	drain(0)
	return acked
}

// record is what the reference answered and framed at each version of each
// generation (0: the first champion, 1: the challenger), keyed gen<<48 |
// version, and the step after which the challenger served (-1: none did).
type record struct {
	want     map[uint64][]float64
	frame    map[uint64][]byte
	promoted int
}

// reference runs l's steps one at a time on an unlogged deployment with no
// checkpoints. It records every version of the champion and, from the
// challenge step on, of a plain deployment of the challenger config fed
// each chunk the champion ticks: the challenger's trajectory.
func (l *life) reference(t *testing.T) *record {
	rec := &record{want: map[uint64][]float64{}, frame: map[uint64][]byte{}, promoted: -1}
	r := registry.New(registry.Options{})
	defer r.Close()
	d, _, err := l.create(r, "")
	if err != nil {
		t.Fatal(err)
	}
	champ, probe := d.Serving(), l.w.chunk(l.probe)
	var shadow *core.Deployer
	note := func(gen int, dep *core.Deployer) {
		k := uint64(gen)<<48 | dep.Published().Version()
		out, err := dep.Predict(probe)
		if err != nil {
			t.Fatal(err)
		}
		rec.want[k], rec.frame[k] = out, frameOf(t, dep).Payload
	}
	note(0, champ)
	h := hooks{frames: rec.frame}
	h.ticked = func(i int) {
		if note(0, champ); shadow != nil {
			if err := shadow.Ingest(l.w.chunk(i)); err != nil {
				t.Fatal(err)
			}
			note(1, shadow)
		}
	}
	h.stepped = func(s int) {
		if l.steps[s].kind == challenge {
			if shadow, err = core.NewDeployer(l.newChallenger()); err != nil {
				t.Fatal(err)
			}
			note(1, shadow)
		}
		if note(0, champ); d.Version() > 1 && rec.promoted < 0 {
			rec.promoted = s
		}
	}
	l.drive(t, d, nil, h)
	if shadow != nil {
		shadow.Shutdown()
		if rec.promoted < 0 {
			t.Fatal("the reference never promoted its challenger")
		}
	}
	return rec
}

// frameOf is dep's published state framed, as every consumer takes it.
func frameOf(t *testing.T, dep *core.Deployer) snapstream.Frame {
	t.Helper()
	f, err := dep.Current().Frame()
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// sameBits reports whether two float slices are equal bit for bit.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// checkReaders runs l on a checkpointing deployment while readers predict
// the probe on it and on a replica fed the first champion's frames, and a
// framer frames whatever serves. After every step the writer waits until
// readers of both have answered at the published version, so every version
// is read on both while the next step runs. The challenger must serve after
// the step the reference's did.
func checkReaders(t *testing.T, l life) {
	rec := l.reference(t)
	root := t.TempDir()
	r := registry.New(registry.Options{CheckpointRoot: root, CheckpointEvery: l.every, CheckpointKeep: 1 << 10})
	defer r.Close()
	d, _, err := l.create(r, root)
	if err != nil {
		t.Fatal(err)
	}
	champ, probe := d.Serving(), l.w.chunk(l.probe)
	last := frameOf(t, champ)
	replica, err := core.NewDeployer(l.w.config())
	if err == nil {
		err = replica.SnapshotSink().Apply(last) // the replica starts where the champion does
	}
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Shutdown()
	key := func(dep *core.Deployer, v uint64) uint64 {
		if dep == champ || dep == replica {
			return v
		}
		return 1<<48 | v
	}
	isWant := func(k uint64, payload []byte) bool {
		w, ok := rec.frame[k]
		return ok && bytes.Equal(payload, w)
	}

	var (
		stopped  atomic.Bool
		wg       sync.WaitGroup
		mu       sync.Mutex
		frames   = map[uint64]snapstream.Frame{}
		answered = [2]map[uint64]bool{{}, {}} // per source
	)
	halt := sync.OnceFunc(func() { stopped.Store(true); wg.Wait() })
	defer halt()
	loop := func(body func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			for !stopped.Load() && err == nil {
				err = body()
			}
			if err != nil {
				t.Error(err)
			}
		}()
	}
	for i, src := range []func() *core.Deployer{d.Serving, func() *core.Deployer { return replica }} {
		for range 3 {
			loop(func() error {
				// The snapshot that answers is published between the two reads
				// of the version: the answer must be one of theirs.
				dep := src()
				from := key(dep, dep.Published().Version())
				out, err := dep.Predict(probe)
				to := key(dep, dep.Published().Version())
				k := from
				for err == nil && k <= to && !sameBits(out, rec.want[k]) {
					k++
				}
				if err != nil || k > to {
					return fmt.Errorf("source %d answered %v (err %v), which no version %#x…%#x of the reference answers", i, out, err, from, to)
				}
				if from == to {
					mu.Lock()
					answered[i][k] = true
					mu.Unlock()
				}
				runtime.Gosched() // the writer and the replica feed need the CPU the readers race
				return nil
			})
		}
	}
	loop(func() error {
		f, ok, err := champ.FrameSince(last.Version)
		if err != nil || !ok {
			time.Sleep(50 * time.Microsecond)
			return err
		}
		if !isWant(f.Version, f.Payload) {
			return fmt.Errorf("the replica feed framed version %d differently from the reference", f.Version)
		}
		last = f
		return replica.SnapshotSink().Apply(f)
	})
	seen := func(i int, k uint64) bool {
		mu.Lock()
		defer mu.Unlock()
		return answered[i][k]
	}
	since, framed := map[*core.Deployer]uint64{}, 0
	loop(func() error {
		dep := d.Serving()
		if framed++; framed%2 == 0 {
			since[dep] = 0 // every other pass frames the published version, new or not
		}
		f, ok, err := dep.FrameSince(since[dep])
		k := key(dep, f.Version)
		if err != nil || !ok {
			return err
		}
		if !isWant(k, f.Payload) {
			return fmt.Errorf("version %#x framed differently from the reference", k)
		}
		since[dep], frames[k] = f.Version, f // read after halt
		return nil
	})

	promoted := -1
	l.drive(t, d, nil, hooks{frames: rec.frame, stepped: func(s int) {
		dep := d.Serving()
		if promoted < 0 && dep != champ {
			promoted = s
		}
		end := [2]uint64{key(dep, dep.Published().Version()), champ.Published().Version()}
		if !isWant(end[0], frameOf(t, dep).Payload) {
			t.Fatalf("step %d: version %#x is not the reference's", s, end[0])
		}
		for deadline := time.Now().Add(10 * time.Second); !seen(0, end[0]) || !seen(1, end[1]); time.Sleep(50 * time.Microsecond) {
			if t.Failed() || time.Now().After(deadline) {
				t.Fatalf("step %d: no reader answered at version %#x, or on the replica at %d", s, end[0], end[1])
			}
		}
	}})
	halt()
	r.Close() // the checkpoint writers' last files are on disk
	if promoted != rec.promoted {
		t.Fatalf("the challenger served after step %d, the reference's after step %d", promoted, rec.promoted)
	}

	// Every cadence checkpoint: the champion's under ckpt, a challenger's
	// under its generation's directory.
	dirs, _ := filepath.Glob(filepath.Join(root, "m", "gen*"))
	files := 0
	for i, dir := range append([]string{filepath.Join(root, "m", "ckpt")}, dirs...) {
		list, err := snapstream.List(dir)
		if err != nil || i == 0 && len(list) == 0 {
			t.Fatalf("cadence checkpoints in %s: %v (err %v)", dir, list, err)
		}
		for _, fi := range list {
			if f, err := snapstream.ReadFile(fi.Path); err != nil || !isWant(uint64(min(i, 1))<<48|f.Version, f.Payload) {
				t.Fatalf("the cadence checkpoint %s is not the reference's frame of its version (err %v)", fi.Path, err)
			}
		}
		files += len(list)
	}
	// Every frame taken, applied to a cold deployer, publishes its version
	// and answers as the reference does there.
	for k, f := range frames {
		cold, err := core.NewDeployer([]func() core.Config{l.w.config, l.newChallenger}[k>>48]())
		if err != nil {
			t.Fatal(err)
		}
		if err := cold.SnapshotSink().Apply(f); err != nil || cold.Published().Version() != f.Version {
			t.Fatalf("the frame of version %#x published version %d (err %v)", k, cold.Published().Version(), err)
		}
		if got, err := cold.Predict(probe); err != nil || !sameBits(got, rec.want[k]) {
			t.Fatalf("the frame of version %#x answers %v (err %v), the reference %v", k, got, err, rec.want[k])
		}
		cold.Shutdown()
	}
	t.Logf("answered at %d versions, %d on the replica; %d frames, %d checkpoint files", len(answered[0]), len(answered[1]), len(frames), files)
}

// powerCut is one life's disk. It counts the boundaries under root and
// fails the at-th and every later one (at 0: none), so the dead process
// changes nothing more on disk; cut then takes every file back to its length
// at its last fsync. A create, rename or remove counts as durable once it
// returns — a simplification: a real power cut can also lose a directory
// entry no directory fsync has covered yet.
type powerCut struct {
	root string
	at   int
	dead atomic.Bool

	mu      sync.Mutex
	ops     []string         // each boundary crossed or failed, paths relative to root
	durable map[string]int64 // path → length at its last fsync
}

// cuts routes snapstream.Disk's boundaries to the powerCut whose root holds
// the path, so lives on separate roots cut their power in parallel.
var cuts sync.Map // root → *powerCut

func init() {
	snapstream.Disk.Fault = func(op, path, to string) error {
		var err error
		cuts.Range(func(root, p any) bool {
			if strings.HasPrefix(path, root.(string)+string(filepath.Separator)) {
				err = p.(*powerCut).fault(op, path, to)
			}
			return true
		})
		return err
	}
}

func (p *powerCut) fault(op, path, to string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	rel, _ := filepath.Rel(p.root, path)
	p.ops = append(p.ops, op+" "+rel)
	if p.at > 0 && len(p.ops) >= p.at {
		p.dead.Store(true)
		return errors.New("crash point: power cut")
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

// checkPowerCut runs l once whole, counting its K boundaries, then once per
// k in 1…K+1 with the power cut at boundary k (K+1: after the life), and
// recovers each through CreateWarm. A logged life must come back at the
// version and payload bytes of the reference fed the warm-up and exactly
// the acknowledged chunks, having replayed the log past the checkpoint it
// restored. An unlogged one comes back at its newest checkpoint, which must
// hold no chunk that was not ticked. Either way the recovered deployment,
// fed the chunks it lacks in the whole life's order, must end where the
// reference fed the same chunks ends.
func checkPowerCut(t *testing.T, l life) {
	refs := map[string][]byte{}
	reference := func(chunks []int) []byte {
		if k := fmt.Sprint(chunks); refs[k] == nil {
			seq := life{w: l.w, warm: l.warm, every: l.every}
			for _, i := range chunks {
				seq.steps = append(seq.steps, step{kind: ingestSync, chunk: i})
			}
			refs[k] = seq.reference(t).frame[uint64(1+l.warm+len(chunks))]
		}
		return refs[fmt.Sprint(chunks)]
	}
	life := func(at int) (*powerCut, []int) {
		p := &powerCut{root: t.TempDir(), at: at, durable: map[string]int64{}}
		cuts.Store(p.root, p)
		defer cuts.Delete(p.root)
		r := registry.New(registry.Options{CheckpointRoot: p.root, CheckpointEvery: l.every})
		defer r.Close()
		alive := func(err error) bool {
			if err != nil && !p.dead.Load() {
				t.Fatalf("failed with the power on: %v", err)
			}
			return !p.dead.Load()
		}
		d, _, err := l.create(r, p.root)
		if !alive(err) {
			return p, nil
		}
		acked := l.drive(t, d, alive, hooks{settle: true})
		if st, ok := d.Serving().WALStats(); ok && st.PrunedSegments == 0 && at == 0 {
			t.Fatalf("no ingest-log segment was pruned (%d segments left): the life misses the prune boundaries", st.Segments)
		}
		return p, acked
	}
	whole, all := life(0)
	t.Logf("K = %d boundaries", len(whole.ops))
	for k := 1; k <= len(whole.ops)+1; k++ {
		p, acked := life(k)
		at, cut := "after the life", min(k, len(whole.ops))
		if len(p.ops) < cut || !slices.Equal(p.ops[:cut], whole.ops[:cut]) {
			t.Fatalf("k=%d: the boundaries before the cut differ from the whole life's:\n%q\n%q", k, p.ops[:min(cut, len(p.ops))], whole.ops[:cut])
		}
		if k == cut {
			at = p.ops[k-1]
		}
		if err := p.cut(); err != nil {
			t.Fatal(err)
		}
		// Recovered, the deployment takes no cadence checkpoint: only its state is checked.
		r := registry.New(registry.Options{CheckpointRoot: p.root, CheckpointEvery: 1 << 20})
		d, boot, err := l.create(r, p.root)
		if err != nil {
			r.Close()
			t.Fatalf("k=%d (%s): recovery failed: %v", k, at, err)
		}
		dep := d.Serving()
		got := frameOf(t, dep)
		last, ok := dep.LastCheckpoint()
		if boot.Recovered == 0 && k > len(whole.ops) ||
			boot.Recovered > 0 && (!ok || last.Version < boot.Recovered || !l.logged && last.Version != boot.Recovered) {
			t.Fatalf("k=%d (%s): recovered checkpoint version %d, the last checkpoint %+v", k, at, boot.Recovered, last)
		}
		base, n := max(boot.Recovered, uint64(1+l.warm)), len(acked) // no checkpoint: the warm-up ran again
		if st, ok := dep.WALStats(); ok && st.Replayed != got.Version-base {
			t.Fatalf("k=%d (%s): replayed %d chunks from version %d to %d", k, at, st.Replayed, base, got.Version)
		}
		if !l.logged {
			if n = int(got.Version) - 1 - l.warm; n > len(acked) {
				t.Fatalf("k=%d (%s): recovered version %d holds more than the %d chunks ticked", k, at, got.Version, len(acked))
			}
		}
		fed := slices.Clone(acked[:n])
		for _, i := range all {
			if !slices.Contains(fed, i) {
				if fed = append(fed, i); d.Ingest(l.w.chunk(i)) != nil {
					t.Fatalf("k=%d: feeding chunk %d after recovery failed", k, i)
				}
			}
		}
		resumed := frameOf(t, dep)
		r.Close()
		if want := reference(acked[:n]); got.Version != uint64(1+l.warm+n) || !bytes.Equal(got.Payload, want) {
			t.Fatalf("k=%d (%s): recovered version %d, want %d for acknowledged chunks %v; payloads equal: %v",
				k, at, got.Version, 1+l.warm+n, acked[:n], bytes.Equal(got.Payload, want))
		}
		if !bytes.Equal(resumed.Payload, reference(fed)) {
			t.Fatalf("k=%d (%s): recovered at version %d and fed chunks %v, not where the reference fed %v ends", k, at, got.Version, fed[n:], fed)
		}
	}
}
