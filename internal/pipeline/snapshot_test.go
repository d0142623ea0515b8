package pipeline

import (
	"testing"

	"cdml/internal/data"
)

func xFrame(xs ...float64) *data.Frame {
	f := data.NewFrame(len(xs))
	f.SetFloat("x", xs)
	return f
}

func colorFrame(vals ...string) *data.Frame {
	f := data.NewFrame(len(vals))
	f.SetString("color", vals)
	return f
}

// TestSnapshotStatelessSharesInstance: stateless components have no
// statistics to copy, so Snapshot must return the receiver itself.
func TestSnapshotStatelessSharesInstance(t *testing.T) {
	comps := []Component{
		NewAssembler([]string{"x"}, nil, "features"),
		NewFeatureHasher([]string{"x"}, nil, "features", 16),
	}
	for _, c := range comps {
		if !c.Stateless() {
			t.Fatalf("%s: expected stateless", c.Name())
		}
		if c.Snapshot() != c {
			t.Errorf("%s: stateless Snapshot did not return the receiver", c.Name())
		}
	}
}

// TestSnapshotImmutableUnderUpdate: a stateful component's snapshot must
// keep transforming with the statistics frozen at snapshot time, no matter
// how the receiver's statistics evolve afterwards.
func TestSnapshotImmutableUnderUpdate(t *testing.T) {
	s := NewStandardScaler([]string{"x"})
	if err := s.Update(xFrame(2, 4)); err != nil { // mean 3, std 1
		t.Fatal(err)
	}
	snap := s.Snapshot().(*StandardScaler)
	if snap == s {
		t.Fatal("stateful Snapshot returned the receiver")
	}

	// Shift the receiver's statistics dramatically.
	if err := s.Update(xFrame(100, 200, 300)); err != nil {
		t.Fatal(err)
	}

	out, err := snap.Transform(xFrame(3))
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Float("x")[0]; got != 0 {
		t.Fatalf("snapshot transform of the old mean = %v, want 0 (frozen stats)", got)
	}
	out2, err := s.Transform(xFrame(3))
	if err != nil {
		t.Fatal(err)
	}
	if out2.Float("x")[0] == 0 {
		t.Fatal("receiver stats did not move; test exercises nothing")
	}
}

// TestPipelineSnapshotServesFrozenState: Pipeline.Snapshot must transform
// records exactly as the source pipeline did at snapshot time, and stay
// bit-identical while the source keeps learning.
func TestPipelineSnapshotServesFrozenState(t *testing.T) {
	p := testPipeline()
	if _, err := p.ProcessOnline(recs("1,2", "0,4", "1,6")); err != nil {
		t.Fatal(err)
	}

	snap := p.Snapshot()
	query := recs("1,3", "0,5")
	want, err := p.ProcessServe(query)
	if err != nil {
		t.Fatal(err)
	}

	// Keep training the source; the snapshot must not notice.
	if _, err := p.ProcessOnline(recs("1,1000", "0,2000")); err != nil {
		t.Fatal(err)
	}

	got, err := snap.ProcessServe(query)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("instances = %d, want %d", len(got), len(want))
	}
	for i := range got {
		for j := 0; j < got[i].X.Dim(); j++ {
			if got[i].X.At(j) != want[i].X.At(j) {
				t.Fatalf("instance %d feature %d = %v, want %v (snapshot drifted)",
					i, j, got[i].X.At(j), want[i].X.At(j))
			}
		}
	}
	// The drifted source now transforms differently from the snapshot.
	moved, err := p.ProcessServe(query)
	if err != nil {
		t.Fatal(err)
	}
	if moved[0].X.At(0) == got[0].X.At(0) {
		t.Fatal("source stats did not move; test exercises nothing")
	}
}

// TestSnapshotDeepCopiesCategoricalState: OneHotEncoder's snapshot must
// own its value→ordinal table — categories learned by the receiver after
// the snapshot must not leak into the frozen encoding.
func TestSnapshotDeepCopiesCategoricalState(t *testing.T) {
	enc := NewOneHotEncoder("color", "color_oh", 8)
	if err := enc.Update(colorFrame("red", "blue")); err != nil {
		t.Fatal(err)
	}
	snap := enc.Snapshot().(*OneHotEncoder)

	if err := enc.Update(colorFrame("green", "purple", "yellow")); err != nil {
		t.Fatal(err)
	}

	if got := snap.domain.Cardinality(); got != 2 {
		t.Fatalf("snapshot cardinality = %d, want 2 (receiver's later categories leaked in)", got)
	}
	if got := enc.domain.Cardinality(); got != 5 {
		t.Fatalf("receiver cardinality = %d, want 5", got)
	}
	// The snapshot encodes known values and zero-encodes unseen ones.
	out, err := snap.Transform(colorFrame("red", "green"))
	if err != nil {
		t.Fatal(err)
	}
	vecs := out.Vec("color_oh")
	if vecs[0].NNZ() != 1 {
		t.Fatal("known category not encoded")
	}
	if vecs[1].NNZ() != 0 {
		t.Fatal("category unseen at snapshot time must zero-encode")
	}
}
