package eval

import (
	"math"
	"testing"
)

func fill(c *Confusion, tp, fp, tn, fn int) {
	for i := 0; i < tp; i++ {
		c.Observe(1, 1)
	}
	for i := 0; i < fp; i++ {
		c.Observe(1, -1)
	}
	for i := 0; i < tn; i++ {
		c.Observe(-1, -1)
	}
	for i := 0; i < fn; i++ {
		c.Observe(-1, 1)
	}
}

func TestConfusionCounts(t *testing.T) {
	var c Confusion
	fill(&c, 3, 1, 4, 2)
	tp, fp, tn, fn := c.tp, c.fp, c.tn, c.fn
	if tp != 3 || fp != 1 || tn != 4 || fn != 2 {
		t.Fatalf("matrix = %d %d %d %d", tp, fp, tn, fn)
	}
	if c.Count() != 10 {
		t.Fatalf("count = %d", c.Count())
	}
}

func TestConfusionRates(t *testing.T) {
	var c Confusion
	fill(&c, 3, 1, 4, 2)
	if got := c.accuracy(); got != 0.7 {
		t.Fatalf("accuracy = %v", got)
	}
	if got := c.precision(); got != 0.75 {
		t.Fatalf("precision = %v", got)
	}
	if got := c.recall(); got != 0.6 {
		t.Fatalf("recall = %v", got)
	}
	wantF1 := 2 * 0.75 * 0.6 / (0.75 + 0.6)
	if got := c.f1(); math.Abs(got-wantF1) > 1e-12 {
		t.Fatalf("f1 = %v, want %v", got, wantF1)
	}
	if got := c.Value(); math.Abs(got-0.3) > 1e-12 {
		t.Fatalf("misclassification = %v", got)
	}
}

func TestConfusionZeroOneConvention(t *testing.T) {
	var c Confusion
	c.Observe(1, 1)
	c.Observe(0, 0)
	c.Observe(1, 0)
	c.Observe(0, 1)
	tp, fp, tn, fn := c.tp, c.fp, c.tn, c.fn
	if tp != 1 || fp != 1 || tn != 1 || fn != 1 {
		t.Fatalf("0/1 convention wrong: %d %d %d %d", tp, fp, tn, fn)
	}
}

func TestConfusionEmptyAndDegenerate(t *testing.T) {
	var c Confusion
	if c.Value() != 0 || c.accuracy() != 0 || c.precision() != 0 || c.recall() != 0 || c.f1() != 0 {
		t.Fatal("empty confusion should be all zeros")
	}
	// Only negatives: precision/recall undefined → 0, no NaN.
	c.Observe(-1, -1)
	if math.IsNaN(c.precision()) || math.IsNaN(c.recall()) || math.IsNaN(c.f1()) {
		t.Fatal("NaN in degenerate rates")
	}
	if c.accuracy() != 1 {
		t.Fatalf("accuracy = %v", c.accuracy())
	}
}

func TestConfusionResetAndString(t *testing.T) {
	var c Confusion
	fill(&c, 1, 1, 1, 1)
	if c.String() == "" {
		t.Fatal("empty string rendering")
	}
	c.Reset()
	if c.Count() != 0 {
		t.Fatal("reset failed")
	}
	if c.Name() != "confusion" {
		t.Fatal("name wrong")
	}
}
