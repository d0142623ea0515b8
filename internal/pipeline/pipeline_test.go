package pipeline

import (
	"bytes"
	"fmt"
	"strconv"
	"testing"

	"cdml/internal/data"
)

// csvParser is a tiny test parser: "label,x" per line.
type csvParser struct{}

func (csvParser) Name() string { return "csv-test" }

func (csvParser) Parse(records [][]byte) (*data.Frame, error) {
	var labels, xs []float64
	for _, rec := range records {
		parts := bytes.Split(rec, []byte(","))
		if len(parts) != 2 {
			continue // drop malformed
		}
		y, err1 := strconv.ParseFloat(string(parts[0]), 64)
		x, err2 := strconv.ParseFloat(string(parts[1]), 64)
		if err1 != nil || err2 != nil {
			continue
		}
		labels = append(labels, y)
		xs = append(xs, x)
	}
	f := data.NewFrame(len(labels))
	f.SetFloat("label", labels)
	f.SetFloat("x", xs)
	return f, nil
}

func testPipeline() *Pipeline {
	return New(csvParser{},
		NewStandardScaler([]string{"x"}),
		NewAssembler([]string{"x"}, nil, "features"),
	)
}

func recs(lines ...string) [][]byte {
	out := make([][]byte, len(lines))
	for i, l := range lines {
		out[i] = []byte(l)
	}
	return out
}

func TestProcessOnlineProducesInstances(t *testing.T) {
	p := testPipeline()
	ins, err := p.ProcessOnline(recs("1,2", "0,4"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ins) != 2 {
		t.Fatalf("instances = %d", len(ins))
	}
	if ins[0].Y != 1 || ins[1].Y != 0 {
		t.Fatal("labels wrong")
	}
	// mean 3, std 1 → scaled to ∓1
	if ins[0].X.At(0) != -1 || ins[1].X.At(0) != 1 {
		t.Fatalf("features wrong: %v %v", ins[0].X, ins[1].X)
	}
}

func TestProcessServeDoesNotUpdateStats(t *testing.T) {
	p := testPipeline()
	if _, err := p.ProcessOnline(recs("1,0", "1,10")); err != nil { // mean 5
		t.Fatal(err)
	}
	scaler := p.Components[0].(*StandardScaler)
	before := scaler.moments["x"].Mean()
	if _, err := p.ProcessServe(recs("1,100", "1,100")); err != nil {
		t.Fatal(err)
	}
	if scaler.moments["x"].Mean() != before {
		t.Fatal("serve path updated statistics")
	}
}

func TestTrainServeConsistency(t *testing.T) {
	// The same record must transform identically on both paths once stats
	// are frozen (paper §4.3's inconsistency guarantee).
	p := testPipeline()
	if _, err := p.ProcessOnline(recs("1,0", "1,10")); err != nil {
		t.Fatal(err)
	}
	a, err := p.ProcessServe(recs("1,7"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.ProcessServe(recs("1,7"))
	if err != nil {
		t.Fatal(err)
	}
	if a[0].X.At(0) != b[0].X.At(0) {
		t.Fatal("serve path not deterministic")
	}
}

func TestMalformedRecordsDropped(t *testing.T) {
	p := testPipeline()
	ins, err := p.ProcessOnline(recs("1,2", "garbage", "0,3,extra", "0,4"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ins) != 2 {
		t.Fatalf("instances = %d, want 2", len(ins))
	}
}

func TestInstancesMissingColumnsError(t *testing.T) {
	p := New(csvParser{}) // no assembler → no features col
	if _, err := p.ProcessOnline(recs("1,2")); err == nil {
		t.Fatal("expected error without feature column")
	}
	p2 := New(csvParser{}, NewAssembler([]string{"x"}, nil, "features"))
	p2.LabelCol = "nonexistent"
	if _, err := p2.ProcessOnline(recs("1,2")); err == nil {
		t.Fatal("expected error without label column")
	}
}

type failingComponent struct{ onUpdate bool }

func (f failingComponent) Name() string        { return "failing" }
func (f failingComponent) Stateless() bool     { return false }
func (f failingComponent) Snapshot() Component { return f }
func (f failingComponent) Update(*data.Frame) error {
	if f.onUpdate {
		return fmt.Errorf("boom")
	}
	return nil
}
func (f failingComponent) Transform(fr *data.Frame) (*data.Frame, error) {
	if !f.onUpdate {
		return nil, fmt.Errorf("boom")
	}
	return fr, nil
}

func TestComponentErrorsPropagate(t *testing.T) {
	p := New(csvParser{}, failingComponent{onUpdate: true})
	if _, err := p.ProcessOnline(recs("1,2")); err == nil {
		t.Fatal("update error swallowed")
	}
	p2 := New(csvParser{}, failingComponent{onUpdate: false})
	if _, err := p2.ProcessServe(recs("1,2")); err == nil {
		t.Fatal("transform error swallowed")
	}
}

func TestFullPipelineWithImputerAndOneHot(t *testing.T) {
	// A realistic mixed pipeline: impute, scale, one-hot, assemble.
	parser := mixedParser{}
	p := New(parser,
		NewImputer([]string{"x"}, []string{"color"}),
		NewStandardScaler([]string{"x"}),
		NewOneHotEncoder("color", "colorVec", 4),
		NewAssembler([]string{"x"}, []string{"colorVec"}, "features"),
	)
	ins, err := p.ProcessOnline(recs("1|2|red", "0|4|blue", "1|?|"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ins) != 3 {
		t.Fatalf("instances = %d", len(ins))
	}
	if ins[0].X.Dim() != 5 {
		t.Fatalf("feature dim = %d, want 5", ins[0].X.Dim())
	}
	// Third row: x imputed with mean(2,4)=3 then scaled; color imputed with
	// the mode (red or blue, both count 1, first-seen red wins).
	if ins[2].X.At(1) != 1 { // red is ordinal 0 → index 1 after the float
		t.Fatalf("imputed one-hot wrong: %v", ins[2].X)
	}
}

// mixedParser parses "label|x|color" with "?" meaning missing x.
type mixedParser struct{}

func (mixedParser) Name() string { return "mixed-test" }

func (mixedParser) Parse(records [][]byte) (*data.Frame, error) {
	var labels, xs []float64
	var colors []string
	for _, rec := range records {
		parts := bytes.Split(rec, []byte("|"))
		if len(parts) != 3 {
			continue
		}
		y, err := strconv.ParseFloat(string(parts[0]), 64)
		if err != nil {
			continue
		}
		x := data.Missing
		if string(parts[1]) != "?" {
			if v, err := strconv.ParseFloat(string(parts[1]), 64); err == nil {
				x = v
			}
		}
		labels = append(labels, y)
		xs = append(xs, x)
		colors = append(colors, string(parts[2]))
	}
	f := data.NewFrame(len(labels))
	f.SetFloat("label", labels)
	f.SetFloat("x", xs)
	f.SetString("color", colors)
	return f, nil
}
