package experiment

import (
	"strings"
	"testing"
	"time"

	"cdml/internal/core"
	"cdml/internal/drift"
	"cdml/internal/eval"
)

func TestExtDriftDetectorsHelp(t *testing.T) {
	if testing.Short() {
		t.Skip("deployment runs")
	}
	r, err := ExtDrift()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	var base ExtDriftRow
	for _, row := range r.Rows {
		if row.Variant == "schedule-only" {
			base = row
			if row.DriftEvents != 0 {
				t.Fatal("schedule-only variant reported drift events")
			}
		}
	}
	for _, row := range r.Rows {
		if row.Variant == "schedule-only" {
			continue
		}
		if row.DriftEvents == 0 {
			t.Errorf("%s: no drifts detected on a flipping stream", row.Variant)
		}
		if row.FinalError > base.FinalError*1.05 {
			t.Errorf("%s: alleviation made things worse (%v vs %v)", row.Variant, row.FinalError, base.FinalError)
		}
	}
	if !strings.Contains(r.Render(), "drift") {
		t.Error("render missing header")
	}
}

func TestExtRecsysContinuousWins(t *testing.T) {
	if testing.Short() {
		t.Skip("deployment runs")
	}
	r, err := ExtRecsys()
	if err != nil {
		t.Fatal(err)
	}
	// On drifting preferences, continuous deployment should beat pure
	// online learning.
	if r.ContinuousRMSE >= r.OnlineRMSE {
		t.Errorf("continuous RMSE %v not better than online %v", r.ContinuousRMSE, r.OnlineRMSE)
	}
	// Both must beat a naive constant predictor (rating std ≈ 1).
	if r.OnlineRMSE > 0.9 || r.ContinuousRMSE > 0.9 {
		t.Errorf("RMSEs implausibly high: %v / %v", r.OnlineRMSE, r.ContinuousRMSE)
	}
	if !strings.Contains(r.Render(), "recommender") {
		t.Error("render missing header")
	}
}

func TestXYParserDropsMalformed(t *testing.T) {
	f, err := xyParser{}.Parse([][]byte{
		[]byte("+1,0.5,0.5"),
		[]byte("junk"),
		[]byte("+1,x,0.5"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if f.Rows() != 1 {
		t.Fatalf("rows = %d", f.Rows())
	}
}

func TestFlipStreamFlips(t *testing.T) {
	s := flipStream{chunks: 90, rows: 10}
	if s.NumChunks() != 90 || s.Name() == "" {
		t.Fatal("stream metadata wrong")
	}
	// Chunks exist at all phases.
	for _, c := range []int{0, 45, 89} {
		if len(s.Chunk(c)) != 10 {
			t.Fatalf("chunk %d wrong size", c)
		}
	}
}

func TestExtVeloxContinuousDominates(t *testing.T) {
	if testing.Short() {
		t.Skip("deployment runs")
	}
	r, err := ExtVelox()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	var th, cont ExtVeloxRow
	for _, row := range r.Rows {
		switch row.Strategy {
		case "threshold":
			th = row
		case "continuous":
			cont = row
		}
	}
	if th.Retrains == 0 {
		t.Fatal("threshold baseline never retrained on a flipping stream")
	}
	// The paper's critique: threshold retraining reacts late and pays a
	// full-history retraining each time. Continuous must not lose on both
	// axes, and on this stream it should win quality outright.
	if cont.FinalError >= th.FinalError {
		t.Errorf("continuous error %v not below threshold's %v", cont.FinalError, th.FinalError)
	}
	if cont.Cost >= th.Cost {
		t.Errorf("continuous cost %v not below threshold's %v", cont.Cost, th.Cost)
	}
	if !strings.Contains(r.Render(), "Velox") {
		t.Error("render missing header")
	}
}

// slowedStream is a Taxi stream whose trips, from chunk `from` on, take three
// times as long: each record's dropoff moves to pickup + 3·(dropoff − pickup).
type slowedStream struct {
	core.Stream
	from int
}

func (s slowedStream) Chunk(i int) [][]byte {
	const layout = "2006-01-02 15:04:05"
	recs := s.Stream.Chunk(i)
	if i < s.from {
		return recs
	}
	for k, rec := range recs {
		f := strings.SplitN(string(rec), ",", 3)
		pickup, _ := time.Parse(layout, f[0])
		dropoff, _ := time.Parse(layout, f[1])
		f[1] = pickup.Add(3 * dropoff.Sub(pickup)).Format(layout)
		recs[k] = []byte(strings.Join(f, ","))
	}
	return recs
}

// TestTaxiDriftDetectorCanFire: the Taxi row's drift loss is bounded absolute
// error, so a detector on a regression deployment sees a signal that moves.
// Under 0/1 mismatch every prediction of a regression is a miss, the signal
// is constantly 1, and no stream can ever trigger.
func TestTaxiDriftDetectorCanFire(t *testing.T) {
	w := TaxiWorkload(ScaleSmall)
	cfg := w.BaseConfig(core.ModeContinuous, 1)
	cfg.DriftDetector = drift.NewDDM()
	d, err := core.NewDeployer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	res, err := d.Run(slowedStream{Stream: w.Stream, from: w.Stream.NumChunks() / 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.DriftEvents == 0 {
		t.Fatal("durations tripled halfway and DDM recorded no drift")
	}
}

// pairTap is a metric that hands every scored (prediction, actual) pair on.
type pairTap struct {
	eval.Metric
	each func(pred, actual float64)
}

func (p pairTap) Observe(pred, actual float64) {
	p.Metric.Observe(pred, actual)
	p.each(pred, actual)
}

// TestRecentLossIsTheFadedDriftLoss: what a deployment publishes as its recent
// loss — the number threshold mode retrains on and a promotion compares — is,
// after every tick and to the bit, the faded mean (α 0.995) of the workload
// row's per-record drift loss: 0/1 mismatch on the URL row, clipped absolute
// error on the Taxi row.
func TestRecentLossIsTheFadedDriftLoss(t *testing.T) {
	for _, w := range []*Workload{URLWorkload(ScaleSmall), TaxiWorkload(ScaleSmall)} {
		loss := w.DriftLoss
		if loss == nil {
			loss = func(pred, actual float64) float64 {
				//lint:allow floateq: class labels compare exactly
				if pred != actual {
					return 1
				}
				return 0
			}
		}
		ref := eval.NewFading(0.995)
		cfg := w.BaseConfig(core.ModeContinuous, 1)
		cfg.Metric = pairTap{cfg.Metric, func(pred, actual float64) { ref.ObserveLoss(loss(pred, actual)) }}
		d, err := core.NewDeployer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Shutdown()
		for i := 0; i < 12; i++ {
			if err := d.Ingest(w.Stream.Chunk(i)); err != nil {
				t.Fatal(err)
			}
			//lint:allow floateq: the same losses folded in the same order
			if got := d.Stats(); got.RecentLoss != ref.Value() || got.RecentCount != ref.Count() || ref.Count() == 0 {
				t.Fatalf("%s after chunk %d: recent loss %v over %d records, the reference %v over %d",
					w.Name, i, got.RecentLoss, got.RecentCount, ref.Value(), ref.Count())
			}
		}
	}
}
