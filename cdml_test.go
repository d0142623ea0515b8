package cdml_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"
	"testing"
	"time"

	"cdml"
)

// apiStream and apiParser exercise the public API end to end.
type apiStream struct{ chunks, rows int }

func (s apiStream) Name() string   { return "api" }
func (s apiStream) NumChunks() int { return s.chunks }

func (s apiStream) Chunk(i int) [][]byte {
	r := rand.New(rand.NewSource(int64(i) + 1))
	recs := make([][]byte, s.rows)
	for k := range recs {
		x0, x1 := r.NormFloat64(), r.NormFloat64()
		y := "+1"
		if x0-x1 < 0 {
			y = "-1"
		}
		recs[k] = []byte(fmt.Sprintf("%s,%.4f,%.4f", y, x0, x1))
	}
	return recs
}

type apiParser struct{}

func (apiParser) Name() string { return "api-parser" }

func (apiParser) Parse(records [][]byte) (*cdml.Frame, error) {
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
	f := cdml.NewFrame(len(ys))
	f.SetFloat("label", ys)
	f.SetFloat("x0", x0s)
	f.SetFloat("x1", x1s)
	return f, nil
}

func publicPipeline() *cdml.Pipeline {
	return cdml.NewPipeline(apiParser{},
		cdml.NewImputer([]string{"x0"}, nil),
		cdml.NewStandardScaler([]string{"x0", "x1"}),
		cdml.NewAssembler([]string{"x0", "x1"}, nil, "features"),
	)
}

func TestPublicAPIContinuousDeployment(t *testing.T) {
	cfg := cdml.Config{
		Mode:           cdml.ModeContinuous,
		NewPipeline:    publicPipeline,
		NewModel:       func() cdml.Model { return cdml.NewSVM(2, 1e-4) },
		NewOptimizer:   func() cdml.Optimizer { return cdml.NewAdam(0.05) },
		Store:          cdml.NewStore(cdml.NewMemoryBackend(), cdml.WithCapacity(20)),
		Sampler:        cdml.NewTimeSampler(1),
		SampleChunks:   5,
		ProactiveEvery: 4,
		InitialChunks:  5,
		Metric:         &cdml.Misclassification{},
		Predict:        cdml.ClassifyPredictor,
		DriftDetector:  cdml.NewDDM(),
	}
	d, err := cdml.NewDeployer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Run(apiStream{chunks: 60, rows: 40})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalError >= 0.5 {
		t.Fatalf("error = %v", res.FinalError)
	}
	if res.ProactiveRuns == 0 {
		t.Fatal("no proactive training")
	}
}

func TestPublicAPISamplersAndMu(t *testing.T) {
	for _, name := range []string{"uniform", "window", "time"} {
		s, err := cdml.NewSampler(name, 10, 1)
		if err != nil {
			t.Fatal(err)
		}
		ids := []cdml.Timestamp{0, 1, 2, 3, 4}
		if got := s.Sample(ids, 3); len(got) != 3 {
			t.Fatalf("%s: sample = %v", name, got)
		}
	}
	if mu := cdml.MuUniform(12000, 7200); mu < 0.9 || mu > 0.92 {
		t.Fatalf("MuUniform = %v", mu)
	}
	if cdml.MuWindow(100, 60, 50) != 1 {
		t.Fatal("MuWindow m≥w should be 1")
	}
}

func TestPublicAPIOptimizersByName(t *testing.T) {
	for _, name := range []string{"sgd", "momentum", "adam", "rmsprop", "adadelta"} {
		o, err := cdml.NewOptimizer(name, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		w := []float64{1}
		o.Step(w, cdml.Dense{1})
		if w[0] == 1 {
			t.Fatalf("%s: no step applied", name)
		}
	}
}

func TestPublicAPIVectors(t *testing.T) {
	s := cdml.NewSparse(5, []int32{1, 3}, []float64{2, 4})
	if s.Dot([]float64{0, 1, 0, 1, 0}) != 6 {
		t.Fatal("sparse dot wrong")
	}
	d := cdml.Dense{1, 2}
	if d.L2() == 0 {
		t.Fatal("dense norm wrong")
	}
}

func TestPublicAPIKMeans(t *testing.T) {
	km := cdml.NewKMeans(2, 2)
	copy(km.Centroid(0), []float64{0, 0})
	copy(km.Centroid(1), []float64{5, 5})
	if km.Predict(cdml.Dense{4.5, 5.5}) != 1 {
		t.Fatal("kmeans predict wrong")
	}
}

func TestPublicAPISchedulers(t *testing.T) {
	st := cdml.NewStaticScheduler(time.Minute)
	if !st.Due(time.Now()) {
		t.Fatal("static scheduler should be due initially")
	}
	dy := cdml.NewDynamicScheduler(2, time.Millisecond)
	if !dy.Due(time.Now()) {
		t.Fatal("dynamic scheduler should be due initially")
	}
}

func TestPublicAPIDriftDetectors(t *testing.T) {
	var det cdml.DriftDetector = cdml.NewPageHinkley()
	for i := 0; i < 100; i++ {
		if det.Observe(0) == cdml.DriftDrift {
			t.Fatal("drift on a clean stream")
		}
	}
	det2 := cdml.NewDDM()
	if det2.State() != cdml.DriftStable {
		t.Fatal("fresh DDM should be stable")
	}
}

func TestPublicAPIMetrics(t *testing.T) {
	for _, m := range []cdml.Metric{&cdml.Misclassification{}, &cdml.RMSE{}, &cdml.RMSLE{}, &cdml.MAE{}, &cdml.LogLoss{}} {
		m.Observe(1, 0)
		if m.Count() != 1 {
			t.Fatalf("%s: count wrong", m.Name())
		}
	}
}

func TestPublicAPIExtraComponents(t *testing.T) {
	p := cdml.NewPipeline(apiParser{},
		cdml.NewStdClipper([]string{"x0"}, 3),
		cdml.NewInteraction([][2]string{{"x0", "x1"}}),
		cdml.NewBinarizer([]string{"x0*x1"}, 0),
		cdml.NewMinMaxScaler([]string{"x1"}),
		cdml.NewAssembler([]string{"x0", "x1", "x0*x1"}, nil, "features"),
		cdml.NewNormalizer("features"),
	)
	ins, err := p.ProcessOnline(apiStream{1, 20}.Chunk(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(ins) != 20 || ins[0].X.Dim() != 3 {
		t.Fatalf("instances wrong: %d × %d", len(ins), ins[0].X.Dim())
	}
}

func TestPublicAPIDiskBackend(t *testing.T) {
	b, err := cdml.NewDiskBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	store := cdml.NewStore(b)
	id, err := store.AppendRaw([][]byte{[]byte("rec")})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.PutFeatures(id, []cdml.Instance{{X: cdml.Dense{1}, Y: 1}}); err != nil {
		t.Fatal(err)
	}
	ins, ok, err := store.Features(id)
	if err != nil || !ok || ins[0].Y != 1 {
		t.Fatalf("disk store round trip failed: %v", err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIEngine(t *testing.T) {
	e := cdml.NewEngine(2)
	if e.Workers() != 2 {
		t.Fatal("engine workers wrong")
	}
}
