package pipeline

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"cdml/internal/data"
	"cdml/internal/flat"
)

// trainedPipeline is a pipeline holding every bundled Persistent component,
// its statistics fed by a few random batches.
func trainedPipeline(t *testing.T, seed int64) *Pipeline {
	t.Helper()
	p := everyPersistent()
	r := rand.New(rand.NewSource(seed))
	for b := 0; b < 3; b++ {
		if _, err := updateTransform(p.Components, randomFrame(r, 12)); err != nil {
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
