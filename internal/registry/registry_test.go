package registry

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"cdml/internal/core"
	"cdml/internal/data"
	"cdml/internal/engine"
	"cdml/internal/eval"
	"cdml/internal/experiment"
	"cdml/internal/model"
	"cdml/internal/obs"
	"cdml/internal/opt"
	"cdml/internal/pipeline"
	"cdml/internal/wal"
)

// testParser parses "label,x0,x1".
type testParser struct{}

func (testParser) Name() string { return "registry-test-parser" }

func (testParser) Parse(records [][]byte) (*data.Frame, error) {
	var ys, x0s, x1s []float64
	for _, rec := range records {
		parts := bytes.Split(rec, []byte(","))
		if len(parts) != 3 {
			continue
		}
		y, e1 := strconv.ParseFloat(string(parts[0]), 64)
		x0, e2 := strconv.ParseFloat(string(parts[1]), 64)
		x1, e3 := strconv.ParseFloat(string(parts[2]), 64)
		if e1 != nil || e2 != nil || e3 != nil {
			continue
		}
		ys = append(ys, y)
		x0s = append(x0s, x0)
		x1s = append(x1s, x1)
	}
	f := data.NewFrame(len(ys))
	f.SetFloat("label", ys)
	f.SetFloat("x0", x0s)
	f.SetFloat("x1", x1s)
	return f, nil
}

// testConfig builds a minimal online deployment; newOpt lets a test pick a
// learning (Adam) or deliberately frozen (zero-rate SGD) optimizer.
func testConfig(newOpt func() opt.Optimizer) core.Config {
	return core.Config{
		Mode: core.ModeOnline,
		NewPipeline: func() *pipeline.Pipeline {
			return pipeline.New(testParser{},
				pipeline.NewStandardScaler([]string{"x0", "x1"}),
				pipeline.NewAssembler([]string{"x0", "x1"}, nil, "features"),
			)
		},
		NewModel:     func() model.Model { return model.NewSVM(2, 1e-4) },
		NewOptimizer: newOpt,
		Store:        data.NewStore(data.NewMemoryBackend()),
		Metric:       &eval.Misclassification{},
		Predict:      core.ClassifyPredictor,
	}
}

func adamConfig() core.Config {
	return testConfig(func() opt.Optimizer { return opt.NewAdam(0.05) })
}

// frozenConfig never learns: a zero-rate SGD leaves the SVM at its zero
// initialization, predicting +1 for everything (~50% error on the balanced
// test stream) — the perfect sitting-duck champion.
func frozenConfig() core.Config {
	return testConfig(func() opt.Optimizer { return opt.NewSGD(0) })
}

// chunk generates n "label,x0,x1" records with y = sign(x0+x1).
func chunk(r *rand.Rand, n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		x0, x1 := r.NormFloat64(), r.NormFloat64()
		y := "+1"
		if x0+x1 < 0 {
			y = "-1"
		}
		out[i] = []byte(fmt.Sprintf("%s,%.6f,%.6f", y, x0, x1))
	}
	return out
}

func TestNameValidation(t *testing.T) {
	r := New(Options{})
	for _, name := range []string{"", "-lead", "_lead", "has space", "dot.dot", strings.Repeat("x", 65)} {
		if _, err := r.Create(name, adamConfig(), Quotas{}); err == nil {
			t.Errorf("Create(%q) accepted an invalid name", name)
		}
	}
	for _, name := range []string{"a", "model-2", "A_b-C", strings.Repeat("x", 64)} {
		d, err := r.Create(name, adamConfig(), Quotas{})
		if err != nil {
			t.Fatalf("Create(%q): %v", name, err)
		}
		if d.Name() != name {
			t.Fatalf("Name() = %q, want %q", d.Name(), name)
		}
	}
}

func TestCreateGetDeleteLifecycle(t *testing.T) {
	r := New(Options{})
	if _, err := r.Create("m", adamConfig(), Quotas{}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Create("m", adamConfig(), Quotas{}); err == nil {
		t.Fatal("duplicate Create succeeded")
	}
	d, ok := r.Get("m")
	if !ok {
		t.Fatal("Get lost the deployment")
	}
	if got := r.List(); len(got) != 1 || got[0] != d {
		t.Fatalf("List() = %v", got)
	}
	rnd := rand.New(rand.NewSource(1))
	if err := d.Ingest(chunk(rnd, 20)); err != nil {
		t.Fatal(err)
	}
	if err := r.Delete("m"); err != nil {
		t.Fatal(err)
	}
	if err := r.Delete("m"); err == nil {
		t.Fatal("double Delete succeeded")
	}
	// A closed deployment rejects writes but still answers predictions from
	// its published snapshot.
	if err := d.Ingest(chunk(rnd, 20)); err != ErrClosed {
		t.Fatalf("ingest after close: err = %v, want ErrClosed", err)
	}
	if _, err := d.Predict(chunk(rnd, 5)); err != nil {
		t.Fatalf("predict after close: %v", err)
	}
	// The name is free again.
	if _, err := r.Create("m", adamConfig(), Quotas{}); err != nil {
		t.Fatalf("recreate after delete: %v", err)
	}
}

// TestCreateExistingNameLeavesLiveLogAlone is the regression test for the
// second-WAL-writer bug: Create used to build the deployer — opening
// <WALRoot>/<name>/wal, whose open truncates what it takes for a torn tail —
// before checking the name was free. A duplicate Create must fail with
// ErrExists without touching the live champion's log, even mid-append.
func TestCreateExistingNameLeavesLiveLogAlone(t *testing.T) {
	root := t.TempDir()
	r := New(Options{WALRoot: root})
	d, err := r.Create("m", adamConfig(), Quotas{})
	if err != nil {
		t.Fatal(err)
	}
	duplicate := func() {
		t.Helper()
		if _, err := r.Create("m", adamConfig(), Quotas{}); !errors.Is(err, ErrExists) {
			t.Fatalf("duplicate Create: err = %v, want ErrExists", err)
		}
	}

	// Duplicate creates racing a live appender.
	const appends = 40
	done := make(chan error, 1)
	go func() {
		rnd := rand.New(rand.NewSource(1))
		for i := 0; i < appends; i++ {
			if _, err := d.AppendIngestLog(chunk(rnd, 5)); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < 8; i++ {
		duplicate()
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	// A half-written frame at the tail is what an in-flight append looks like
	// from outside; a second writer opening the directory would truncate it.
	segs, err := filepath.Glob(filepath.Join(root, "m", "wal", "*.open"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("active segments = %v (err %v), want 1", segs, err)
	}
	f, err := os.OpenFile(segs[0], os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("CDMLWAL1 half a frame")); err != nil {
		t.Fatal(err)
	}
	f.Close()
	before, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	stats, _ := d.Serving().WALStats()
	duplicate()
	if after, err := os.ReadFile(segs[0]); err != nil || !bytes.Equal(before, after) {
		t.Fatalf("duplicate Create touched the live segment: %d bytes → %d (err %v)", len(before), len(after), err)
	}
	if got, _ := d.Serving().WALStats(); got != stats || got.Appends != appends {
		t.Fatalf("live log stats = %+v, want %+v with %d appends", got, stats, appends)
	}

	// Every acknowledged append survives a reopen.
	r.Close()
	l, err := wal.Open(wal.Options{Dir: filepath.Join(root, "m", "wal")})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	n, err := l.Replay(0, func(uint64, [][]byte) error { return nil })
	if err != nil || n != appends {
		t.Fatalf("reopen replayed %d chunks (err %v), want %d", n, err, appends)
	}
}

// TestConcurrentCreateDeletePredict hammers one name with create/delete
// cycles while other goroutines resolve and use whatever deployment is
// present — the race test behind the registry's locking story (run with
// -race).
func TestConcurrentCreateDeletePredict(t *testing.T) {
	r := New(Options{Engine: engine.New(2), Metrics: obs.NewRegistry()})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if d, ok := r.Get("hot"); ok {
					_, _ = d.Predict(chunk(rnd, 3))
					_ = d.Ingest(chunk(rnd, 5))
				}
			}
		}(int64(w) + 10)
	}
	for i := 0; i < 30; i++ {
		if _, err := r.Create("hot", adamConfig(), Quotas{}); err != nil {
			t.Fatal(err)
		}
		if err := r.Delete("hot"); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestShadowTeeDeterminism is the tee's core guarantee: the champion's
// training trajectory is bit-identical with and without a challenger
// attached, because the tee fires after the champion's tick has fully
// completed and the challenger trains only its own state.
func TestShadowTeeDeterminism(t *testing.T) {
	trajectory := func(withChallenger bool) []float64 {
		r := New(Options{})
		d, err := r.Create("m", adamConfig(), Quotas{})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if withChallenger {
			pol := Policy{MinEvaluated: 1 << 40} // never promotes
			if err := d.StartChallenger(adamConfig(), pol); err != nil {
				t.Fatal(err)
			}
		}
		rnd := rand.New(rand.NewSource(7))
		for i := 0; i < 12; i++ {
			if err := d.Ingest(chunk(rnd, 30)); err != nil {
				t.Fatal(err)
			}
		}
		w := d.Serving().Model().Weights()
		out := make([]float64, len(w))
		copy(out, w)
		return out
	}
	plain := trajectory(false)
	shadowed := trajectory(true)
	if len(plain) != len(shadowed) {
		t.Fatalf("weight lengths differ: %d vs %d", len(plain), len(shadowed))
	}
	for i := range plain {
		//lint:allow floateq: bit-identity is the property under test
		if plain[i] != shadowed[i] {
			t.Fatalf("champion weight %d differs with challenger attached: %v vs %v",
				i, plain[i], shadowed[i])
		}
	}
}

// TestPromotionAtomicUnderPredicts is the acceptance test for the swap: a
// frozen champion (~50% error) shadowed by a learning challenger, with
// goroutines predicting continuously. The challenger must be auto-promoted,
// the predictors must never observe an error, and the deployment version
// must change monotonically.
func TestPromotionAtomicUnderPredicts(t *testing.T) {
	r := New(Options{Metrics: obs.NewRegistry()})
	d, err := r.Create("m", frozenConfig(), Quotas{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var predictErrs atomic.Int64
	var versionRegressed atomic.Bool
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(seed))
			last := uint64(0)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := d.Predict(chunk(rnd, 4)); err != nil {
					predictErrs.Add(1)
				}
				v := d.Version()
				if v < last {
					versionRegressed.Store(true)
				}
				last = v
			}
		}(int64(w) + 100)
	}

	if err := d.StartChallenger(adamConfig(), Policy{MinEvaluated: 150, Margin: 0.1, MaxShadowTicks: -1}); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Challenger(); !ok {
		t.Fatal("challenger not attached")
	}
	rnd := rand.New(rand.NewSource(3))
	if at := ingestUntilPromoted(t, d, rnd, 50, 40); at < 3 {
		t.Fatalf("promoted at chunk %d, before both sides had seen MinEvaluated records", at)
	}
	close(stop)
	wg.Wait()

	if n := predictErrs.Load(); n != 0 {
		t.Fatalf("%d predictions failed across the swap", n)
	}
	if versionRegressed.Load() {
		t.Fatal("deployment version regressed")
	}
	if v := d.Version(); v != 2 {
		t.Fatalf("version = %d, want 2", v)
	}
	if _, ok := d.Challenger(); ok {
		t.Fatal("challenger still attached after promotion")
	}
	if !d.HasRollback() {
		t.Fatal("old champion not retained for rollback")
	}
	// The promoted model actually learned: it must beat coin flipping on
	// fresh data.
	recs := chunk(rnd, 400)
	preds, err := d.Predict(recs)
	if err != nil {
		t.Fatal(err)
	}
	wrong := 0
	for i, rec := range recs {
		want := 1.0
		if rec[0] == '-' {
			want = -1
		}
		//lint:allow floateq: class labels compare exactly
		if preds[i] != want {
			wrong++
		}
	}
	if frac := float64(wrong) / float64(len(recs)); frac > 0.35 {
		t.Fatalf("promoted model error %.2f, want < 0.35", frac)
	}
	// The new champion keeps training.
	if err := d.Ingest(chunk(rnd, 20)); err != nil {
		t.Fatal(err)
	}
	// And rollback restores the frozen original.
	if err := d.Rollback(); err != nil {
		t.Fatal(err)
	}
	if v := d.Version(); v != 3 {
		t.Fatalf("version after rollback = %d, want 3", v)
	}
	if d.HasRollback() {
		t.Fatal("rollback point should be consumed")
	}
	if err := d.Rollback(); err == nil {
		t.Fatal("second rollback succeeded with no previous champion")
	}
}

// ingestUntilPromoted feeds d chunks of rows records until its version moves
// and returns how many it took; more than limit is a failure. The verdict is
// taken on the tick that produced its evidence, so there is nothing to wait
// for between two chunks.
func ingestUntilPromoted(t *testing.T, d *Deployment, rnd *rand.Rand, rows, limit int) int {
	t.Helper()
	for n := 1; n <= limit; n++ {
		if err := d.Ingest(chunk(rnd, rows)); err != nil {
			t.Fatal(err)
		}
		if d.Version() != 1 {
			return n
		}
	}
	t.Fatalf("challenger not promoted within %d chunks", limit)
	return 0
}

// TestPromotionIndexIsDeterministic: a promotion is a function of the chunk
// sequence. Twenty runs of one seeded sequence — with readers on other
// goroutines, under -race in CI — promote on the same chunk, which is the
// first whose published evidence satisfies the policy: the run is repeated
// with the policy evaluated by hand on the two Stats() after every chunk.
func TestPromotionIndexIsDeterministic(t *testing.T) {
	pol := Policy{MinEvaluated: 150, Margin: 0.1, MaxShadowTicks: -1}
	run := func() int {
		r := New(Options{})
		defer r.Close()
		d, err := r.Create("m", frozenConfig(), Quotas{})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.StartChallenger(adamConfig(), pol); err != nil {
			t.Fatal(err)
		}
		stop, done := make(chan struct{}), make(chan struct{})
		defer func() { close(stop); <-done }()
		go func() {
			defer close(done)
			for {
				select {
				case <-stop:
					return
				default:
					d.Challenger()
					d.Serving().Stats()
				}
			}
		}()
		return ingestUntilPromoted(t, d, rand.New(rand.NewSource(3)), 50, 40)
	}

	// The reference: two deployers nobody compares, the policy applied by hand.
	champ, err := core.NewDeployer(frozenConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer champ.Shutdown()
	chal, err := core.NewDeployer(adamConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer chal.Shutdown()
	rnd, want := rand.New(rand.NewSource(3)), 0
	for n := int64(1); want == 0; n++ {
		c := chunk(rnd, 50)
		if err := champ.Ingest(c); err != nil {
			t.Fatal(err)
		}
		if err := chal.Ingest(c); err != nil {
			t.Fatal(err)
		}
		if pol.decide(champ.Stats(), chal.Stats(), n) == decidePromote {
			want = int(n)
		}
	}
	for i := 0; i < 20; i++ {
		if got := run(); got != want {
			t.Fatalf("run %d promoted at chunk %d, the sequential reference at chunk %d", i, got, want)
		}
	}
}

// TestRegressionChallengerPromotes: the policy compares the workload row's
// drift loss, so it can tell two regressions apart. On the Taxi row a frozen
// champion (rmsprop at rate 0: it predicts 0 for log1p(duration) and its
// clipped absolute error sits at 1) is shadowed by the row's own learning
// configuration, which must win; under 0/1 mismatch both sides would read 1
// forever.
func TestRegressionChallengerPromotes(t *testing.T) {
	w := experiment.TaxiWorkload(experiment.ScaleSmall)
	config := func(lr float64) core.Config {
		cfg := w.Deployment()
		cfg.Mode = core.ModeOnline
		cfg.Store = data.NewStore(data.NewMemoryBackend())
		cfg.NewOptimizer = func() opt.Optimizer { return w.NewOptimizer(w.BestOpt, lr) }
		return cfg
	}
	r := New(Options{})
	defer r.Close()
	d, err := r.Create("taxi", config(0), Quotas{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.StartChallenger(config(w.BestLR), Policy{MinEvaluated: 150, Margin: 0.1, MaxShadowTicks: -1}); err != nil {
		t.Fatal(err)
	}
	frozen := d.Serving()
	for i := 0; d.Version() == 1; i++ {
		if i == w.Stream.NumChunks() {
			st, _ := d.Challenger()
			t.Fatalf("challenger not promoted over %d chunks: champion recent loss %v, challenger %v over %d records",
				i, frozen.Stats().RecentLoss, st.WindowLoss, st.WindowCount)
		}
		if err := d.Ingest(w.Stream.Chunk(i)); err != nil {
			t.Fatal(err)
		}
	}
	lost, won := frozen.Stats(), d.Serving().Stats()
	if lost.RecentLoss < 0.99 || won.RecentLoss >= lost.RecentLoss-0.1 || won.RecentCount < 150 {
		t.Fatalf("promoted on recent loss %v (%d records) against the frozen champion's %v",
			won.RecentLoss, won.RecentCount, lost.RecentLoss)
	}
}

// TestChallengerAutoRetires gives the policy a challenger that cannot win
// (frozen optimizer shadowing a learning champion): on the MaxShadowTicks-th
// shadowed chunk, not before and not later, it must be detached and shut down
// without a version change.
func TestChallengerAutoRetires(t *testing.T) {
	r := New(Options{})
	d, err := r.Create("m", adamConfig(), Quotas{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := d.StartChallenger(frozenConfig(), Policy{MinEvaluated: 1 << 40, MaxShadowTicks: 5}); err != nil {
		t.Fatal(err)
	}
	if err := d.StartChallenger(frozenConfig(), Policy{}); err == nil {
		t.Fatal("second concurrent challenger accepted")
	}
	rnd := rand.New(rand.NewSource(9))
	for n := 1; n <= 5; n++ {
		if err := d.Ingest(chunk(rnd, 10)); err != nil {
			t.Fatal(err)
		}
		if _, attached := d.Challenger(); attached != (n < 5) {
			t.Fatalf("after shadowed chunk %d of MaxShadowTicks 5: challenger attached = %v", n, attached)
		}
	}
	if v := d.Version(); v != 1 {
		t.Fatalf("version = %d after retirement, want 1", v)
	}
	// The slot is free for the next attempt.
	if err := d.StartChallenger(adamConfig(), Policy{}); err != nil {
		t.Fatalf("challenger slot not freed: %v", err)
	}
}

// TestStoppedChallengerIsRetiredOnce: StopChallenger clears the slot, shuts
// the challenger down and counts the retirement; the chunk on which the
// policy would have retired the same challenger finds no challenger and must
// not count it again.
func TestStoppedChallengerIsRetiredOnce(t *testing.T) {
	metrics := obs.NewRegistry()
	r := New(Options{Metrics: metrics})
	d, err := r.Create("m", adamConfig(), Quotas{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := d.StartChallenger(frozenConfig(), Policy{MinEvaluated: 1 << 40, MaxShadowTicks: 1}); err != nil {
		t.Fatal(err)
	}
	if err := d.StopChallenger(); err != nil {
		t.Fatal(err)
	}
	if err := d.Ingest(chunk(rand.New(rand.NewSource(2)), 10)); err != nil {
		t.Fatal(err)
	}
	retired := metrics.Counter("cdml_challenger_retirements_total", "", obs.L("deployment", "m"))
	if n := retired.Value(); n != 1 {
		t.Fatalf("cdml_challenger_retirements_total = %v for one challenger", n)
	}
}

// TestAdoptedDeploymentHostsChallengers: a deployer built outside the
// registry is a deployment like any other once adopted — it reports its
// recent loss, is shadowed, loses to a better challenger and comes back on
// rollback.
func TestAdoptedDeploymentHostsChallengers(t *testing.T) {
	dep, err := core.NewDeployer(frozenConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := New(Options{})
	d, err := r.Adopt("default", dep, Quotas{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := d.StartChallenger(adamConfig(), Policy{MinEvaluated: 150, Margin: 0.1, MaxShadowTicks: -1}); err != nil {
		t.Fatalf("adopted deployment refused a challenger: %v", err)
	}
	rnd := rand.New(rand.NewSource(2))
	ingestUntilPromoted(t, d, rnd, 50, 40)
	if d.Serving() == dep || d.Serving().Stats().RecentCount == 0 {
		t.Fatal("the adopted deployer still serves after its challenger's promotion")
	}
	if err := d.Rollback(); err != nil {
		t.Fatal(err)
	}
	if d.Serving() != dep || dep.Stats().RecentCount == 0 {
		t.Fatalf("after rollback: adopted deployer serving = %v, its recent loss has seen %d records",
			d.Serving() == dep, dep.Stats().RecentCount)
	}
	if _, err := d.Predict(chunk(rnd, 3)); err != nil {
		t.Fatal(err)
	}
}

// TestSharedMetricsStaySeparable creates two deployments on one obs
// registry and checks their series carry distinct deployment labels.
func TestSharedMetricsStaySeparable(t *testing.T) {
	reg := obs.NewRegistry()
	r := New(Options{Metrics: reg})
	for _, name := range []string{"alpha", "beta"} {
		d, err := r.Create(name, adamConfig(), Quotas{})
		if err != nil {
			t.Fatal(err)
		}
		rnd := rand.New(rand.NewSource(4))
		if err := d.Ingest(chunk(rnd, 10)); err != nil {
			t.Fatal(err)
		}
	}
	defer r.Close()
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{`deployment="alpha"`, `deployment="beta"`} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %s:\n%s", want, text)
		}
	}
	if !strings.Contains(text, "cdml_deployments 2") {
		t.Fatalf("exposition missing registry gauge:\n%s", text)
	}
}

// TestChaosKillDuringPromotion kills the process (Close stands in for the
// kill, after which nothing references the old deployers) while a champion
// and a shadow challenger are both auto-checkpointing, then verifies both
// lineages recover from their side-by-side checkpoint directories (the
// champion's <name>/ckpt, the challenger's <name>/gen<G>) — the invariant
// that makes a crash mid-promotion survivable no matter which side wins.
func TestChaosKillDuringPromotion(t *testing.T) {
	root := t.TempDir()
	r := New(Options{CheckpointRoot: root})
	cfg := adamConfig()
	cfg.AutoCheckpoint = &core.CheckpointPolicy{EveryTicks: 1}
	d, err := r.Create("m", cfg, Quotas{})
	if err != nil {
		t.Fatal(err)
	}
	rnd := rand.New(rand.NewSource(5))
	for i := 0; i < 3; i++ {
		if err := d.Ingest(chunk(rnd, 20)); err != nil {
			t.Fatal(err)
		}
	}
	chalCfg := adamConfig()
	chalCfg.AutoCheckpoint = &core.CheckpointPolicy{EveryTicks: 1}
	if err := d.StartChallenger(chalCfg, Policy{MinEvaluated: 1 << 40}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := d.Ingest(chunk(rnd, 20)); err != nil {
			t.Fatal(err)
		}
	}
	champ := d.Serving()
	st, ok := d.Challenger()
	if !ok || st.Ticks != 3 {
		t.Fatalf("challenger status = %+v, ok=%v", st, ok)
	}
	r.Close() // the "kill": drains checkpoint writers like a clean crash boundary

	dirs, err := filepath.Glob(filepath.Join(root, "m", "gen*"))
	if err != nil || len(dirs) != 1 {
		t.Fatalf("challenger checkpoint dirs = %v (err %v), want 1", dirs, err)
	}
	dirs = append(dirs, filepath.Join(root, "m", "ckpt"))
	if last, _ := champ.LastCheckpoint(); filepath.Dir(last.Path) != dirs[1] {
		t.Fatalf("champion checkpoints into %q, want %q", filepath.Dir(last.Path), dirs[1])
	}
	for _, dir := range dirs {
		if entries, err := os.ReadDir(dir); err != nil || len(entries) == 0 {
			t.Fatalf("no checkpoints in %s (err %v)", dir, err)
		}
		revived, err := core.NewDeployer(adamConfig())
		if err != nil {
			t.Fatal(err)
		}
		info, err := revived.RecoverFromDir(dir)
		if err != nil {
			t.Fatalf("recovering %s: %v", dir, err)
		}
		if info.Version < 2 {
			t.Fatalf("recovered version %d from %s, want >= 2", info.Version, dir)
		}
		if _, err := revived.Predict(chunk(rnd, 5)); err != nil {
			t.Fatalf("predict after recovery: %v", err)
		}
		revived.Shutdown()
	}
}
