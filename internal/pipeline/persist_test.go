package pipeline

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"cdml/internal/data"
	"cdml/internal/flat"
	"cdml/internal/stats"
)

// trainedPipeline is a pipeline holding every bundled Persistent component,
// its statistics fed by a few random batches.
func trainedPipeline(t *testing.T, seed int64) *Pipeline {
	t.Helper()
	p := everyPersistent()
	r := rand.New(rand.NewSource(seed))
	for b := 0; b < 3; b++ {
		if _, err := p.UpdateTransform(randomFrame(r, 12)); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

func everyPersistent() *Pipeline {
	return &Pipeline{FeatureCol: "features", LabelCol: "label", Components: []Component{
		NewImputer([]string{"x"}, []string{"c"}),
		NewStandardScaler([]string{"x"}),
		NewMinMaxScaler([]string{"x"}),
		NewStdClipper([]string{"x"}, 2),
		NewBinarizer([]string{"x"}, 0),
		NewOneHotEncoder("c", "cv", 8),
		NewAssembler([]string{"x"}, []string{"cv"}, "features"),
	}}
}

func loadState(p *Pipeline, state []byte) error {
	r := flat.NewReader(state)
	if err := p.LoadState(r); err != nil {
		return err
	}
	return r.Close()
}

// The v1 writers are gone from stats and from this package; the v1 reader's
// test keeps them. welfordV1 and categoricalV1 encode a statistic the way
// its GobEncode method did: a nested gob stream of the wire struct.
type welfordV1 struct{ w *stats.Welford }

func (e welfordV1) GobEncode() ([]byte, error) {
	r := flat.NewReader(e.w.AppendState(nil))
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(struct {
		N        int64
		Mean, M2 float64
	}{int64(r.Uint64()), r.Float64(), r.Float64()})
	return buf.Bytes(), err
}

type categoricalV1 struct{ c *stats.Categorical }

func (e categoricalV1) GobEncode() ([]byte, error) {
	wire := struct {
		Order  []string
		Counts []int64
		Total  int64
	}{Order: e.c.Values(), Total: e.c.Total()}
	for _, v := range wire.Order {
		wire.Counts = append(wire.Counts, e.c.Count(v))
	}
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(wire)
	return buf.Bytes(), err
}

func momentsV1(m map[string]*stats.Welford) map[string]welfordV1 {
	out := make(map[string]welfordV1, len(m))
	for k, w := range m {
		out[k] = welfordV1{w}
	}
	return out
}

// saveStateV1 writes the pipeline section the way servers before the flat
// format did: one gob stream per stateful component over its statistics
// maps.
func saveStateV1(t *testing.T, p *Pipeline) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, c := range p.Components {
		enc := gob.NewEncoder(&buf)
		var vals []any
		switch c := c.(type) {
		case *Imputer:
			modes := make(map[string]categoricalV1, len(c.modes))
			for k, m := range c.modes {
				modes[k] = categoricalV1{m}
			}
			vals = []any{momentsV1(c.means), modes}
		case *StandardScaler:
			vals = []any{momentsV1(c.moments)}
		case *MinMaxScaler:
			vals = []any{c.min, c.max}
		case *OneHotEncoder:
			vals = []any{categoricalV1{c.domain}}
		case *StdClipper:
			vals = []any{momentsV1(c.moments)}
		}
		for _, v := range vals {
			if err := enc.Encode(v); err != nil {
				t.Fatal(err)
			}
		}
	}
	return buf.Bytes()
}

// A v1 pipeline section restores to the same statistics as the flat section
// of the same state, statistic for statistic: the restored pipelines encode
// to equal bytes and transform alike.
func TestLoadStateV1MatchesFlat(t *testing.T) {
	p := trainedPipeline(t, 3)
	want, err := p.AppendState(nil)
	if err != nil {
		t.Fatal(err)
	}
	fromV1 := everyPersistent()
	r := bytes.NewReader(saveStateV1(t, p))
	if err := fromV1.LoadStateV1(r); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 0 {
		t.Fatalf("v1 reader left %d bytes", r.Len())
	}
	got, err := fromV1.AppendState(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("state restored from the v1 section encodes differently from the state it was written from")
	}
	query := randomFrame(rand.New(rand.NewSource(9)), 8)
	a, err := p.Transform(query)
	if err != nil {
		t.Fatal(err)
	}
	b, err := fromV1.Transform(query)
	if err != nil {
		t.Fatal(err)
	}
	if snapshotFrame(a) != snapshotFrame(b) {
		t.Fatal("pipeline restored from the v1 section transforms differently")
	}

	// A v1 section of another column configuration is refused, not loaded
	// into maps the components would dereference a missing column of.
	other := everyPersistent()
	other.Components[1] = NewStandardScaler([]string{"y"})
	if err := other.LoadStateV1(bytes.NewReader(saveStateV1(t, p))); err == nil || !strings.Contains(err.Error(), "standard-scaler") {
		t.Fatalf("v1 state of column x into a scaler of column y: %v", err)
	}
	if err := everyPersistent().LoadStateV1(bytes.NewReader([]byte("junk"))); err == nil {
		t.Fatal("garbage accepted as a v1 section")
	}
	custom := &Pipeline{Components: []Component{statefulStub{}}}
	if err := custom.LoadStateV1(bytes.NewReader(nil)); err == nil || !strings.Contains(err.Error(), "no v1 checkpoint reader") {
		t.Fatalf("a component that never wrote v1 state: %v", err)
	}
}

// statefulStub is a caller's own Persistent component: its state is opaque
// bytes to the pipeline.
type statefulStub struct{ state *[]byte }

func (statefulStub) Name() string                                 { return "stub" }
func (statefulStub) Stateless() bool                              { return false }
func (statefulStub) Update(*data.Frame) error                     { return nil }
func (s statefulStub) Snapshot() Component                        { return s }
func (statefulStub) Transform(f *data.Frame) (*data.Frame, error) { return f, nil }
func (s statefulStub) StateSize() int                             { return len(*s.state) }
func (s statefulStub) AppendState(dst []byte) []byte              { return append(dst, *s.state...) }
func (s statefulStub) LoadState(b []byte) error {
	if bytes.Equal(b, []byte("refuse me")) {
		return errors.New("refused")
	}
	*s.state = append([]byte(nil), b...)
	return nil
}

// The pipeline section is refused, with an error and never a panic, whenever
// it is not exactly the state of this pipeline's stateful components.
func TestLoadStateRefusesWhatItDidNotWrite(t *testing.T) {
	p := trainedPipeline(t, 5)
	state, err := p.AppendState(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := loadState(everyPersistent(), state); err != nil {
		t.Fatal(err)
	}
	// Every prefix is a torn section; every single-bit flip either is refused
	// or decodes to a state that re-encodes to the flipped bytes (a flip
	// inside a float or a count's value bits is a different, valid state).
	for n := 0; n < len(state); n++ {
		if err := loadState(everyPersistent(), state[:n]); err == nil {
			t.Fatalf("a section torn at byte %d of %d was accepted", n, len(state))
		}
	}
	for i := range state {
		for bit := 0; bit < 8; bit++ {
			b := append([]byte(nil), state...)
			b[i] ^= 1 << bit
			q := everyPersistent()
			if err := loadState(q, b); err != nil {
				if !errors.Is(err, flat.ErrCorrupt) {
					t.Fatalf("flip at %d.%d: error %v does not wrap flat.ErrCorrupt", i, bit, err)
				}
				continue
			}
			if again, err := q.AppendState(nil); err != nil || !bytes.Equal(again, b) {
				t.Fatalf("flip at %d.%d was accepted but re-encodes differently", i, bit)
			}
		}
	}
	if err := loadState(everyPersistent(), append(append([]byte(nil), state...), 0)); err == nil {
		t.Fatal("a trailing byte was accepted")
	}
	// Another pipeline's state: one component fewer, another column, another
	// component in the same place.
	fewer := everyPersistent()
	fewer.Components = fewer.Components[1:]
	otherCol := everyPersistent()
	otherCol.Components[2] = NewMinMaxScaler([]string{"y"})
	otherKind := everyPersistent()
	otherKind.Components[1] = NewStdClipper([]string{"x"}, 2)
	for name, q := range map[string]*Pipeline{"fewer components": fewer, "another column": otherCol, "another component": otherKind} {
		if err := loadState(q, state); err == nil {
			t.Fatalf("%s: state of a different pipeline accepted", name)
		}
	}

	// A component of the caller's own gets exactly the bytes it appended, and
	// its refusal is the pipeline's.
	var held []byte
	own := &Pipeline{Components: []Component{statefulStub{state: &held}}}
	held = []byte("opaque \x00 bytes")
	section, err := own.AppendState(nil)
	if err != nil || len(section) != own.StateSize() {
		t.Fatalf("AppendState: %d bytes, StateSize %d, err %v", len(section), own.StateSize(), err)
	}
	held = nil
	if err := loadState(own, section); err != nil || string(held) != "opaque \x00 bytes" {
		t.Fatalf("own component got %q, err %v", held, err)
	}
	held = []byte("refuse me")
	section, _ = own.AppendState(nil)
	if err := loadState(own, section); err == nil || !strings.Contains(err.Error(), "stub") {
		t.Fatalf("a component's refusal must name it: %v", err)
	}
	// A stateful component that cannot persist fails both directions.
	stuck := &Pipeline{Components: []Component{notPersistent{}}}
	if _, err := stuck.AppendState(nil); err == nil {
		t.Fatal("AppendState over a stateful component without Persistent succeeded")
	}
	if err := stuck.LoadState(flat.NewReader(nil)); err == nil {
		t.Fatal("LoadState over a stateful component without Persistent succeeded")
	}
}

type notPersistent struct{ statefulStub }

func (notPersistent) StateSize() {}
