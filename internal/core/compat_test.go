package core

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"cdml/internal/dataset"
	"cdml/internal/eval"
	"cdml/internal/model"
	"cdml/internal/opt"
	"cdml/internal/pipeline"
	"cdml/internal/snapstream"
)

// The checkpoint fixtures. testdata/ckpt-v1-url.ckpt and ckpt-v1-taxi.ckpt
// are CDMLCKP1 checkpoint files whose payload is the gob format of servers
// before the flat payload (DESIGN.md §5n), written by the last commit that
// had that writer (4df9e4b, `WriteCheckpointFile(dir, d.Current())`) from the
// deployments v1Fixture describes after v1Chunks ingested chunks. That
// writer is gone, so they cannot be regenerated; they are the supported
// input the v1 reader exists for. ckpt-v2-*.ckpt are the same two states in
// the current format, written by the commit that introduced it from
// deployments that ingested the same chunks there. Nothing below re-runs
// that training: a later change to the arithmetic of a tick must not be able
// to fail — or to vouch for — a test of the readers.
const v1Chunks = 12

// v1Fixture is the deployment a fixture was written from — a small cousin of
// the benchmark's two workloads: the URL pipeline (imputer, standard scaler,
// hasher) over 256 hashed weights under Adam, and the Taxi pipeline
// (standard scaler, one-hot) under RMSProp — with proactive training on, and
// the stream it had ingested.
func v1Fixture(workload string) (Config, Stream) {
	cfg := liveConfig(ModeContinuous)
	if workload == "url" {
		gen := dataset.DefaultURLConfig()
		gen.Days, gen.ChunksPerDay, gen.RowsPerChunk, gen.Vocab = 20, 1, 40, 400
		cfg.NewPipeline = func() *pipeline.Pipeline { return dataset.NewURLPipeline(256) }
		cfg.NewModel = func() model.Model { return dataset.NewURLModel(256, 1e-3) }
		return cfg, dataset.NewURL(gen)
	}
	gen := dataset.DefaultTaxiConfig()
	gen.Chunks, gen.RowsPerChunk = 20, 40
	cfg.NewPipeline = dataset.NewTaxiPipeline
	cfg.NewModel = func() model.Model { return dataset.NewTaxiModel(1e-4) }
	cfg.NewOptimizer = func() opt.Optimizer { return opt.NewRMSProp(0.05) }
	cfg.Metric = &eval.RMSE{}
	cfg.Predict = RegressionPredictor
	return cfg, dataset.NewTaxi(gen)
}

// fixtureDir is a checkpoint directory holding one committed fixture under
// the name its header version asks for.
func fixtureDir(t *testing.T, fixture string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", fixture))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(snapstream.FilePath(dir, v1Chunks+1), b, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// fixturePayload is the payload of a committed fixture.
func fixturePayload(t testing.TB, fixture string) []byte {
	t.Helper()
	f, err := snapstream.ReadFile(filepath.Join("testdata", fixture))
	if err != nil {
		t.Fatal(err)
	}
	return f.Payload
}

// TestV1CheckpointStillLoads: an operator's checkpoint from before the flat
// payload recovers to the state it was written from — weight for weight,
// slot for slot, statistic for statistic, which with one deterministic
// encoding is byte for byte: the recovered deployment's payload is the
// committed current-format payload of that state, and recovering from that
// one gives it again. Both recoveries continue alike, and the first
// checkpoint written after recovering the v1 file carries the current tag.
func TestV1CheckpointStillLoads(t *testing.T) {
	for _, workload := range []string{"url", "taxi"} {
		t.Run(workload, func(t *testing.T) {
			want := fixturePayload(t, "ckpt-v2-"+workload+".ckpt")
			if old := fixturePayload(t, "ckpt-v1-"+workload+".ckpt"); bytes.HasPrefix(old, []byte(payloadTag)) || !bytes.HasPrefix(want, []byte(payloadTag)) {
				t.Fatal("the fixtures are not one payload of each format")
			}
			recovered := map[string]*Deployer{}
			for _, format := range []string{"v1", "v2"} {
				cfg, _ := v1Fixture(workload)
				dir := fixtureDir(t, "ckpt-"+format+"-"+workload+".ckpt")
				cfg.AutoCheckpoint = &CheckpointPolicy{Dir: dir, EveryTicks: 2}
				d, err := NewDeployer(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer d.Shutdown()
				info, err := d.RecoverFromDir(dir)
				if err != nil {
					t.Fatalf("%s: %v", format, err)
				}
				if info.Version != v1Chunks+1 || d.Published().Version() != v1Chunks+1 {
					t.Fatalf("%s: recovered version %d, serving %d, want %d", format, info.Version, d.Published().Version(), v1Chunks+1)
				}
				if !bytes.Equal(payloadBytes(t, d), want) {
					t.Fatalf("the state recovered from the %s checkpoint is not the state it was written from", format)
				}
				recovered[format] = d
			}

			_, stream := v1Fixture(workload)
			for _, d := range recovered {
				ingestChunks(t, d, stream, v1Chunks, v1Chunks+2)
			}
			if !bytes.Equal(payloadBytes(t, recovered["v1"]), payloadBytes(t, recovered["v2"])) {
				t.Fatal("the two recoveries diverged two ticks on")
			}
			// The cadence has fired since: Shutdown drains the writer, and the
			// file it wrote is in the current format.
			d := recovered["v1"]
			d.Shutdown()
			next, ok, err := snapstream.DirSource{Dir: d.cfg.AutoCheckpoint.Dir}.Latest(context.Background(), v1Chunks+1)
			if err != nil || !ok {
				t.Fatalf("no checkpoint written after the recovery: ok=%v err=%v", ok, err)
			}
			if !bytes.HasPrefix(next.Payload, []byte(payloadTag)) {
				t.Fatal("the first checkpoint after recovering a v1 file is not in the current format")
			}
		})
	}
}

// A v1 payload damaged anywhere is refused and the serving snapshot stays.
func TestV1PayloadDamageIsRefused(t *testing.T) {
	for _, workload := range []string{"url", "taxi"} {
		cfg, _ := v1Fixture(workload)
		old := snapstream.Frame{Payload: fixturePayload(t, "ckpt-v1-"+workload+".ckpt")}
		d, err := NewDeployer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Shutdown()
		before := d.Published()
		for n := 0; n < len(old.Payload); n += 1 + len(old.Payload)/200 {
			if err := d.RestoreCheckpoint(bytes.NewReader(old.Payload[:n])); err == nil {
				t.Fatalf("%s: a v1 payload torn at byte %d of %d was restored", workload, n, len(old.Payload))
			}
		}
		if err := d.RestoreCheckpoint(bytes.NewReader(append(append([]byte(nil), old.Payload...), 0))); err == nil {
			t.Fatalf("%s: a v1 payload with a trailing byte was restored", workload)
		}
		if d.Published() != before {
			t.Fatalf("%s: a refused restore moved the serving snapshot", workload)
		}
		// Another deployment's checkpoint is refused whole.
		otherCfg, _ := v1Fixture(map[string]string{"url": "taxi", "taxi": "url"}[workload])
		other, err := NewDeployer(otherCfg)
		if err != nil {
			t.Fatal(err)
		}
		defer other.Shutdown()
		if err := other.RestoreCheckpoint(bytes.NewReader(old.Payload)); err == nil {
			t.Fatalf("the %s checkpoint restored into the other workload's deployment", workload)
		}
		if err := d.RestoreCheckpoint(bytes.NewReader(old.Payload)); err != nil {
			t.Fatalf("%s: the undamaged payload: %v", workload, err)
		}
	}
}
