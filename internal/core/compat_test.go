package core

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cdml/internal/dataset"
	"cdml/internal/eval"
	"cdml/internal/model"
	"cdml/internal/opt"
	"cdml/internal/pipeline"
	"cdml/internal/snapstream"
)

// The checkpoint fixtures. testdata/ckpt-v2-url.ckpt and ckpt-v2-taxi.ckpt
// are CDMLCKP1 checkpoint files in the one payload format (DESIGN.md §5n),
// written by the commit that introduced it from the deployments v1Fixture
// describes after v1Chunks ingested chunks. They are committed so that a
// change to the format — or to the arithmetic of a tick — cannot land
// without touching a file a reviewer sees.
const v1Chunks = 12

// v1Fixture is the deployment a fixture was written from — a small cousin of
// the benchmark's two workloads: the URL pipeline (token hasher, imputer,
// standard scaler, numeric fold) over 256 hashed weights under Adam, and the
// Taxi pipeline (standard scaler, one-hot) under RMSProp — with proactive
// training on, and the stream it had ingested.
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

// TestCheckpointFormatIsPinned: the committed checkpoint of each workload
// recovers to the version in its header, the recovered deployment encodes to
// the fixture's own bytes, and two ticks on it is in the state an
// uninterrupted run over the same chunks reaches.
func TestCheckpointFormatIsPinned(t *testing.T) {
	for _, workload := range []string{"url", "taxi"} {
		t.Run(workload, func(t *testing.T) {
			want := fixturePayload(t, "ckpt-v2-"+workload+".ckpt")
			cfg, stream := v1Fixture(workload)
			d, err := NewDeployer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer d.Shutdown()
			info, err := d.RecoverFromDir(fixtureDir(t, "ckpt-v2-"+workload+".ckpt"))
			if err != nil {
				t.Fatal(err)
			}
			if info.Version != v1Chunks+1 || d.Published().Version() != v1Chunks+1 {
				t.Fatalf("recovered version %d, serving %d, want %d", info.Version, d.Published().Version(), v1Chunks+1)
			}
			if !bytes.Equal(payloadBytes(t, d), want) {
				t.Fatal("the recovered state does not encode to the bytes it was read from")
			}

			refCfg, _ := v1Fixture(workload)
			ref, err := NewDeployer(refCfg)
			if err != nil {
				t.Fatal(err)
			}
			defer ref.Shutdown()
			ingestChunks(t, ref, stream, 0, v1Chunks+2)
			ingestChunks(t, d, stream, v1Chunks, v1Chunks+2)
			if !bytes.Equal(payloadBytes(t, d), payloadBytes(t, ref)) {
				t.Fatal("two ticks after the recovery the state is not the uninterrupted run's")
			}
		})
	}
}

// untagged is a payload that does not open with payloadTag: the first bytes
// of the gob stream a server wrote for a model section before the flat format.
var untagged = []byte("a\x7f\x03\x01\x01\x08snapshot\x01\xff\x80\x00\x01\x08\x01\x04Kind\x01\x0c\x00")

// TestUntaggedPayloadIsRefused: bytes that do not open with the payload tag
// are refused by name at both doors of the core — a restore leaves the
// serving snapshot where it was, and directory recovery skips the file for
// the next-older valid one, or fails naming the file when there is none.
func TestUntaggedPayloadIsRefused(t *testing.T) {
	cfg, _ := v1Fixture("url")
	d, err := NewDeployer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	before := d.Published()
	err = d.SnapshotSink().Apply(snapstream.Frame{Version: 2, Payload: untagged})
	if err == nil || !strings.Contains(err.Error(), payloadTag) || d.Published() != before {
		t.Fatalf("restore of an untagged payload: err %v, snapshot moved %v", err, d.Published() != before)
	}

	dir := fixtureDir(t, "ckpt-v2-url.ckpt")
	newer, err := snapstream.WriteFile(dir, snapstream.Frame{Version: v1Chunks + 2, Payload: untagged}, nil)
	if err != nil {
		t.Fatal(err)
	}
	info, err := d.RecoverFromDir(dir)
	if err != nil || info.Version != v1Chunks+1 {
		t.Fatalf("recovery past an untagged newest file: version %d, err %v", info.Version, err)
	}
	if err := os.Remove(snapstream.FilePath(dir, v1Chunks+1)); err != nil {
		t.Fatal(err)
	}
	_, err = d.RecoverFromDir(dir)
	if err == nil || errors.Is(err, ErrNoCheckpoint) || !strings.Contains(err.Error(), payloadTag) || !strings.Contains(err.Error(), filepath.Base(newer.Path)) {
		t.Fatalf("recovery from only an untagged file: %v", err)
	}
}
