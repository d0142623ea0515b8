package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"syscall"
	"time"
)

// workload is one deployed pipeline driven through the three traffic phases.
// The two workloads differ in which layers their requests spend time in, on
// the read side and on the write side; see README.md for the reasoning.
type workload struct {
	name     string
	pipeline string // cdml-serve -workload value
	batch    int    // records per predict request
	bodies   int    // distinct predict bodies cycled through
}

var workloads = []workload{
	{
		// Reads are HTTP, routing, middleware and the JSON envelope; a
		// tick is feature hashing and a 32768-weight model clone.
		name:     "url-b1",
		pipeline: "url",
		batch:    1,
		bodies:   512,
	},
	{
		// Reads are parse, five transforms and a 256-float encode, HTTP a
		// small fixed cost; a tick is component updates on 12 weights.
		name:     "taxi-b256",
		pipeline: "taxi",
		batch:    256,
		bodies:   64,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

const (
	// ingestRate is the open-loop async-ingest rate of the mixed phase, in
	// 80-row chunks per second: well under what either pipeline can train
	// (a tick is ~3 ms on url, ~0.4 ms on taxi), so the queue drains and the
	// phase measures interference, not overload.
	ingestRate = 50.0
	// window is the length of one timed window. A run measures each traffic
	// class in as many separate windows as it has seconds for, and the
	// machine between every two of them (see calibrate.go).
	window = time.Second
	// warm is the untimed traffic before each window. Connections stay open
	// from one window to the next, so it only has to cover the first
	// requests after a change of traffic class.
	warm = 50 * time.Millisecond
	// setupBoots is how many times a run boots the server to report the
	// median boot time; the last boot serves the run.
	setupBoots = 3
	// closedLoopConns is the connection count of each closed-loop class.
	closedLoopConns = 2
	// trainPool is how many distinct chunks the synchronous-training class
	// cycles through; a tick costs the same on a chunk it has seen before.
	trainPool = 512
)

// serverArgs is the one server configuration every phase runs against:
// both durability mechanisms on, so the write phases exercise the WAL, the
// checkpoint writer and proactive training, and the read-only phase shows
// what they cost when idle (nothing).
func serverArgs(w workload, dataDir string, warmupChunks int) []string {
	return []string{
		"-workload", w.pipeline,
		"-warmup", fmt.Sprint(warmupChunks),
		"-checkpoint-dir", filepath.Join(dataDir, "ck"),
		"-wal-dir", filepath.Join(dataDir, "wal"),
		"-min-train-interval", "500ms",
		"-runtime-metrics", "1s",
	}
}

// value is one reported number.
type value struct {
	v    float64
	unit string
	n    int // sample count behind a percentile or rate, 0 when not a sample statistic
}

// opCount is attempted/failed for one operation kind.
type opCount struct {
	kind              string
	attempted, failed int
	firstErr          error
}

// runResult is everything one run of one workload reports.
type runResult struct {
	workload string
	endToEnd map[string]value
	perLayer map[string]value // layer numbers taken from outside the server; a traced run adds the in-process ones
	ops      []opCount
	notes    []string
}

func (r *runResult) attempted() (n int) {
	for _, o := range r.ops {
		n += o.attempted
	}
	return n
}

func (r *runResult) failed() (n int) {
	for _, o := range r.ops {
		n += o.failed
	}
	return n
}

// runEnv owns what a run leaves behind on any exit path: child processes
// and data directories. It is used from the goroutine that runs the
// workloads only; a signal reaches it as a cancelled context.
type runEnv struct {
	serverBin string
	workDir   string
	servers   []*server
	dirs      []string
}

func (e *runEnv) newDataDir() (string, error) {
	dir, err := os.MkdirTemp(e.workDir, "run-")
	if err != nil {
		return "", err
	}
	e.dirs = append(e.dirs, dir)
	return dir, nil
}

func (e *runEnv) start(ctx context.Context, dataDir string, args []string) (*server, error) {
	s, err := startServer(ctx, e.serverBin, filepath.Join(dataDir, "server.log"), args...)
	if err != nil {
		return nil, err
	}
	e.servers = append(e.servers, s)
	return s, nil
}

// cleanup kills whatever is still running and removes every data directory.
// It is safe to call more than once.
func (e *runEnv) cleanup() {
	for _, s := range e.servers {
		s.kill()
	}
	e.servers = nil
	for _, d := range e.dirs {
		_ = os.RemoveAll(d)
	}
	e.dirs = nil
}

// runSize is how much one run does. Every reported number comes from
// fullRun; the smoke test shrinks it to fit a unit-test budget.
type runSize struct {
	rounds       int // timed windows per traffic class
	boots        int // server boots behind setup_s
	warmupChunks int // cdml-serve -warmup
}

// fullRun splits the measured seconds evenly over the three traffic classes.
func fullRun(seconds int) runSize {
	return runSize{rounds: seconds / 3, boots: setupBoots, warmupChunks: serverWarmupChunks}
}

// runWorkload boots the server, drives the traffic rounds, checks every
// answer and returns the run's numbers. An error is a run that could not be
// carried out; a wrong answer is a failed operation in the result.
func runWorkload(ctx context.Context, env *runEnv, w workload, seed int64, size runSize) (*runResult, error) {
	defer env.cleanup()
	args := func(dataDir string) []string { return serverArgs(w, dataDir, size.warmupChunks) }
	if size.rounds < 1 {
		return nil, fmt.Errorf("a run needs at least one %v window per traffic class: 3 measured seconds", window)
	}
	res := &runResult{workload: w.name, endToEnd: map[string]value{}}
	selfStart := selfCPU()

	// Payloads first: nothing below waits on a generator.
	bodies, err := predictBodies(w.pipeline, seed, w.batch, w.bodies, serverWarmupChunks)
	if err != nil {
		return nil, err
	}
	perWindow := int(math.Ceil(ingestRate*(warm+window).Seconds())) + 1
	ingestChunks, err := trainChunks(w.pipeline, seed, serverWarmupChunks+100, size.rounds*perWindow)
	if err != nil {
		return nil, err
	}
	pool, err := trainChunks(w.pipeline, seed, serverWarmupChunks+100+len(ingestChunks), trainPool)
	if err != nil {
		return nil, err
	}

	// Set-up: boot the real binary size.boots times, each on a fresh data
	// directory; the last one stays up for the run.
	machine, err := newReference()
	if err != nil {
		return nil, err
	}
	defer machine.close()
	var boots []float64
	var srv *server
	var dataDir string
	for i := 0; i < size.boots; i++ {
		if srv != nil {
			srv.stop()
		}
		if err := machine.sample(); err != nil {
			return nil, err
		}
		if dataDir, err = env.newDataDir(); err != nil {
			return nil, err
		}
		if srv, err = env.start(ctx, dataDir, args(dataDir)); err != nil {
			return nil, err
		}
		boots = append(boots, srv.bootS)
	}

	ctl := newConn() // control-plane requests between windows, never during one
	defer ctl.close()
	// One open-loop ingest connection; closedLoopConns connections for each
	// closed-loop class (see closedLoop for why not one).
	predictConns, trainConns, ingestConn := newConns(closedLoopConns), newConns(closedLoopConns), newConn()
	defer ingestConn.close()
	defer closeConns(predictConns)
	defer closeConns(trainConns)

	statsStart, err := getStats(srv, ctl)
	if err != nil {
		return nil, err
	}
	var (
		pred, mixedPred, train opStats
		ing                    ingestStats
		trainLabels            []float64
		predictCPU, trainCPU   float64 // server CPU seconds spent in those windows
		drains                 []float64
		drainOp                = opCount{kind: "drain"}
		pid                    = srv.cmd.Process.Pid
	)
	// Each round measures the three classes one after the other, so every
	// metric is sampled across the whole run: a slow stretch of the machine
	// touches a few windows of every metric, and the median window and the
	// median latency shrug it off, instead of landing on one metric whole.
	for round := 0; round < size.rounds; round++ {
		if err := machine.sample(); err != nil {
			return nil, err
		}
		// Predict only. No writer runs, so the model is frozen and every
		// answer must repeat bit for bit within the window.
		cpu0, err := readProc(pid)
		if err != nil {
			return nil, err
		}
		frozen := newPredictChecker(w.pipeline, w.batch, len(bodies), true)
		pred.add(runPredict(ctx, srv, predictConns, bodies, frozen, newPhaseClock(warm, window)))
		cpu1, err := readProc(pid)
		if err != nil {
			return nil, fmt.Errorf("after a predict window: %w (%v)", err, pred.firstErr)
		}

		// Synchronous training: one request is one whole tick.
		if err := machine.sample(); err != nil {
			return nil, err
		}
		t, labels := runTrain(ctx, srv, trainConns, pool, newPhaseClock(warm, window))
		train.add(t)
		trainLabels = append(trainLabels, labels...)
		cpu2, err := readProc(pid)
		if err != nil {
			return nil, fmt.Errorf("after a train window: %w (%v)", err, train.firstErr)
		}
		predictCPU += cpu1.cpuSeconds - cpu0.cpuSeconds
		trainCPU += cpu2.cpuSeconds - cpu1.cpuSeconds
		// The train route is not logged, so only a checkpoint makes its ticks
		// survive the crash at the end; force one before ingest resumes.
		if err := forceCheckpoint(srv, ctl); err != nil {
			return nil, err
		}
		if err := machine.sample(); err != nil {
			return nil, err
		}

		// Mixed: open-loop paced async ingest on one connection beside the
		// closed-loop predict connections.
		clk := newPhaseClock(warm, window)
		live := newPredictChecker(w.pipeline, w.batch, len(bodies), false)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			mixedPred.add(runPredict(ctx, srv, predictConns, bodies, live, clk))
		}()
		in, err := runIngest(ctx, srv, ingestConn, ingestChunks[ing.attempted:], ingestRate, clk)
		wg.Wait()
		if err == nil {
			err = ctx.Err() // interrupted: stop here, the deferred cleanup reaps the server
		}
		if err != nil {
			return nil, err
		}
		ing.add(in)

		// Every accepted chunk — acknowledged 202 or answered 200 — must have
		// been trained and published before the next round starts.
		want := 1 + uint64(size.warmupChunks+ing.succeeded()+train.succeeded())
		drained, err := waitDrained(srv, ctl, want, 30*time.Second)
		if err != nil {
			return nil, fmt.Errorf("after a mixed window: %w (ingest: %v, train: %v)", err, ing.firstErr, train.firstErr)
		}
		drains = append(drains, ms(time.Since(in.lastAck)))
		drainOp.attempted++
		if drained.SnapshotVersion != want && drainOp.firstErr == nil {
			drainOp.failed++
			drainOp.firstErr = fmt.Errorf("drained to snapshot version %d, want %d (1 + %d warm-up + %d acked + %d trained)", drained.SnapshotVersion, want, size.warmupChunks, ing.succeeded(), train.succeeded())
		}
	}
	if err := machine.sample(); err != nil {
		return nil, err
	}
	wantVersion := 1 + uint64(size.warmupChunks+ing.succeeded()+train.succeeded())
	statsEnd, err := getStats(srv, ctl)
	if err != nil {
		return nil, err
	}
	scrape, err := getMetrics(srv, ctl)
	if err != nil {
		return nil, err
	}
	procEnd, err := readProc(pid)
	if err != nil {
		return nil, err
	}

	// Crash check: SIGKILL, restart on the same directories, and require
	// every accepted chunk to be there. Each missing one is a failed
	// operation.
	srv.kill()
	srvB, err := env.start(ctx, dataDir, args(dataDir))
	if err != nil {
		return nil, fmt.Errorf("restart after the crash: %w", err)
	}
	recovered, err := getStatus(srvB, ctl)
	if err != nil {
		return nil, err
	}
	recoverOp := opCount{kind: "recover-chunk", attempted: ing.succeeded() + train.succeeded()}
	if off := int(math.Abs(float64(wantVersion) - float64(recovered.SnapshotVersion))); off > 0 {
		recoverOp.failed = min(off, recoverOp.attempted)
		recoverOp.firstErr = fmt.Errorf("recovered to snapshot version %d, want %d: %d accepted chunk(s) lost or replayed twice", recovered.SnapshotVersion, wantVersion, off)
	}
	procB, err := readProc(srvB.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	srvB.stop()
	if exit := srvB.waitEr; exit != nil {
		res.notes = append(res.notes, fmt.Sprintf("server exit after SIGTERM: %v", exit))
	}

	// The deployed model must have learned something from what it was sent:
	// its prequential error over exactly the labelled chunks of this run
	// against the predictor that ignores its input.
	trivial := trivialError(w.pipeline, slices.Concat(ing.ackedLabels, trainLabels))
	learned := windowError(w.pipeline, statsStart, statsEnd)
	learnOp := opCount{kind: "learning", attempted: 1}
	if !(learned < trivial) {
		learnOp.failed, learnOp.firstErr = 1, fmt.Errorf("prequential error %.4f over this run's chunks does not beat the trivial predictor's %.4f", learned, trivial)
	}

	res.ops = []opCount{
		{kind: "predict", attempted: pred.attempted, failed: pred.failed, firstErr: pred.firstErr},
		{kind: "mixed-predict", attempted: mixedPred.attempted, failed: mixedPred.failed, firstErr: mixedPred.firstErr},
		{kind: "ingest", attempted: ing.attempted, failed: ing.failed, firstErr: ing.firstErr},
		{kind: "train", attempted: train.attempted, failed: train.failed, firstErr: train.firstErr},
		drainOp, recoverOp, learnOp,
	}
	for _, s := range []*opStats{&pred, &mixedPred, &ing.opStats, &train} {
		if len(s.lat) == 0 {
			return res, fmt.Errorf("no successful operation inside the timed window (first failure: %v)", s.firstErr)
		}
	}

	predS, mixS, ingS, trainS := pred.lat.sorted(), mixedPred.lat.sorted(), ing.lat.sorted(), train.lat.sorted()
	measured := map[string]value{
		"setup_s":              {median(boots), "s", len(boots)},
		"predict_rps":          {pred.perSecond(), "1/s", len(pred.rates)},
		"predict_p50_ms":       {ms(quantileOf(predS, 0.5)), "ms", len(predS)},
		"mixed_predict_rps":    {mixedPred.perSecond(), "1/s", len(mixedPred.rates)},
		"mixed_predict_p50_ms": {ms(quantileOf(mixS, 0.5)), "ms", len(mixS)},
		"train_chunks_per_s":   {train.perSecond(), "1/s", len(train.rates)},
		"train_p50_ms":         {ms(quantileOf(trainS, 0.5)), "ms", len(trainS)},
	}

	for _, t := range []struct {
		name string
		s    latencies
	}{{"predict", predS}, {"mixed predict", mixS}, {"ingest ack", ingS}, {"train", trainS}} {
		if q, ok := supportedTail(len(t.s)); ok {
			res.notes = append(res.notes, fmt.Sprintf("%s: %d samples support up to p%g = %.4f ms", t.name, len(t.s), q*100, ms(quantileOf(t.s, q))))
		}
	}

	res.perLayer, err = outsideIn(outsideInputs{
		predS: predS, mixS: mixS, ingS: ingS,
		ingest: &ing, acked: ing.succeeded(), drainMS: median(drains), recoveryS: srvB.bootS,
		scrape:        scrape,
		rssPeakMB:     max(procEnd.rssPeakMB, procB.rssPeakMB),
		cpuSeconds:    procEnd.cpuSeconds + procB.cpuSeconds,
		predictCPU:    predictCPU,
		predicts:      pred.attempted,
		trainCPU:      trainCPU,
		trainRequests: train.attempted,
		loadgenCPU:    selfCPU() - selfStart,
		learnedError:  learned,
	})
	if err != nil {
		return nil, err
	}
	res.setEndToEnd(measured, machine.speed(), len(machine.rates[0]))
	return res, nil
}

// setEndToEnd reports the end-to-end figures at reference machine speed (see
// calibrate.go): a time stretches and a rate shrinks by how much faster than
// the reference the machine was during the run. The figures as measured stay
// visible in the per-layer tier, as raw.*, beside the speed.
func (r *runResult) setEndToEnd(measured map[string]value, speed float64, samples int) {
	r.perLayer["machine.speed"] = value{v: speed, unit: "ratio", n: samples}
	for name, v := range measured {
		r.perLayer["raw."+name] = v
		if v.unit == "1/s" {
			v.v /= speed
		} else {
			v.v *= speed
		}
		r.endToEnd[name] = v
	}
}

// forceCheckpoint asks the server for a durable checkpoint of its current
// snapshot, now.
func forceCheckpoint(srv *server, c *conn) error {
	code, body, err := c.post(srv.base+"/v1/deployments/default/checkpoint", nil)
	if err != nil {
		return fmt.Errorf("forcing a checkpoint: %w", err)
	}
	if code != http.StatusOK {
		return fmt.Errorf("forcing a checkpoint: status %d: %.200s", code, body)
	}
	return nil
}

// windowError is the server's prequential error over the records evaluated
// between two /stats readings, recovered from the cumulative figure: the URL
// metric is a misclassification rate (a mean), the taxi metric an RMSE (the
// root of a mean).
func windowError(pipeline string, from, to statsView) float64 {
	total := func(s statsView) float64 {
		if pipeline == "taxi" {
			return s.CumulativeError * s.CumulativeError * float64(s.Evaluated)
		}
		return s.CumulativeError * float64(s.Evaluated)
	}
	n := float64(to.Evaluated - from.Evaluated)
	if n <= 0 {
		return math.Inf(1)
	}
	mean := (total(to) - total(from)) / n
	if pipeline == "taxi" {
		return math.Sqrt(max(mean, 0))
	}
	return mean
}

// selfCPU is the load generator's own user+system CPU seconds so far.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// outsideInputs is what the per-layer numbers taken from outside the server
// are computed from.
type outsideInputs struct {
	predS, mixS, ingS latencies
	ingest            *ingestStats
	acked             int     // chunks acknowledged 202
	drainMS           float64 // median over the rounds
	recoveryS         float64
	scrape            promSeries // the serving life's /metrics, after the last drain and before the SIGKILL
	rssPeakMB         float64    // the larger of the two lives
	cpuSeconds        float64    // both lives
	predictCPU        float64    // server CPU seconds inside predict-only windows (warm-up included)
	predicts          int
	trainCPU          float64 // server CPU seconds inside train windows (warm-up included)
	trainRequests     int
	loadgenCPU        float64
	learnedError      float64
}

// outsideIn derives the layer numbers that need no code inside the server:
// wire tails, the ingest queue seen through its 202s, one scrape of the
// server's own counters, and /proc.
func outsideIn(in outsideInputs) (map[string]value, error) {
	out := map[string]value{}
	var firstErr error
	fromA := func(series string, labels ...string) float64 {
		v, err := in.scrape.get(series, labels...)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		return v
	}
	ratio := func(num, den float64) float64 {
		//lint:allow floateq: guards the division below against a counter that is exactly zero
		if den == 0 {
			return 0
		}
		return num / den
	}
	count := func(name string, v float64) { out[name] = value{v: v, unit: "count"} }

	// Two figures a user of the system sees, kept in this tier because their
	// run-to-run spread on a two-core virtual machine (about 20 %) is wider
	// than any regression bound worth gating on: the predict tail, and the
	// async-ingest ack, which waits on an fsync of a virtual disk while two
	// predict loops hold the cores.
	out["serve.predict_p99_ms"] = value{ms(quantileOf(in.predS, 0.99)), "ms", len(in.predS)}
	out["serve.ingest_ack_p50_ms"] = value{ms(quantileOf(in.ingS, 0.5)), "ms", len(in.ingS)}
	out["serve.predict_p999_ms"] = value{ms(quantileOf(in.predS, 0.999)), "ms", len(in.predS)}
	out["serve.mixed_predict_p99_ms"] = value{ms(quantileOf(in.mixS, 0.99)), "ms", len(in.mixS)}
	out["serve.ingest_ack_p99_ms"] = value{ms(quantileOf(in.ingS, 0.99)), "ms", len(in.ingS)}
	count("serve.queue_depth_max", float64(in.ingest.maxDepth))
	count("serve.ingest_rejected", fromA("cdml_ingest_queue_rejected_total", `deployment="default"`))
	out["serve.drain_ms"] = value{v: in.drainMS, unit: "ms"}

	count("core.ticks", fromA("cdml_ticks_total"))
	count("core.snapshot_publishes", fromA("cdml_snapshot_publishes_total"))
	count("core.proactive_runs", fromA("cdml_proactive_runs_total"))
	out["core.proactive_train_ms_mean"] = value{v: 1e3 * ratio(fromA("cdml_proactive_train_seconds_sum"), fromA("cdml_proactive_train_seconds_count")), unit: "ms"}
	count("core.checkpoint_writes", fromA("cdml_checkpoint_writes_total"))
	count("core.checkpoint_skipped", fromA("cdml_checkpoint_skipped_total"))
	out["core.prequential_error"] = value{v: in.learnedError, unit: "error"}
	out["core.recovery_ms"] = value{v: in.recoveryS * 1e3, unit: "ms"}

	hits, misses := fromA("cdml_store_sample_hits_total"), fromA("cdml_store_sample_misses_total")
	out["data.sample_hit_ratio"] = value{v: ratio(hits, hits+misses), unit: "ratio"}
	count("data.raw_chunks", fromA("cdml_store_raw_chunks"))
	count("data.rematerializations", fromA("cdml_store_rematerializations_total"))

	appends := fromA("cdml_wal_appends_total")
	count("wal.appends", appends)
	out["wal.bytes"] = value{v: fromA("cdml_wal_bytes"), unit: "bytes"}
	count("wal.unapplied_end", fromA("cdml_wal_unapplied"))
	// The synchronous train route does not go through the log today, so
	// every append is an acknowledged ingest chunk and this is 0; it moves
	// when that route is logged.
	count("wal.appends_by_train", appends-float64(in.acked))

	out["engine.foreach_ms_mean"] = value{v: 1e3 * ratio(fromA("cdml_engine_foreach_seconds_sum"), fromA("cdml_engine_foreach_seconds_count")), unit: "ms"}

	out["proc.rss_peak_mb"] = value{v: in.rssPeakMB, unit: "MB"}
	out["proc.cpu_s"] = value{v: in.cpuSeconds, unit: "s"}
	out["proc.cpu_us_per_predict"] = value{v: 1e6 * ratio(in.predictCPU, float64(in.predicts)), unit: "us"}
	out["proc.cpu_ms_per_chunk"] = value{v: 1e3 * ratio(in.trainCPU, float64(in.trainRequests)), unit: "ms"}
	count("proc.gc_cycles", fromA("cdml_runtime_gc_cycles_total"))
	out["proc.gc_pause_p99_ms"] = value{v: 1e3 * fromA("cdml_runtime_gc_pause_p99"), unit: "ms"}

	out["loadgen.ingest_late_p99_ms"] = value{ms(quantileOf(in.ingest.late.sorted(), 0.99)), "ms", len(in.ingest.late)}
	out["loadgen.cpu_s"] = value{v: in.loadgenCPU, unit: "s"}
	return out, firstErr
}
