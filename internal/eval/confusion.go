package eval

import "fmt"

// Confusion accumulates the binary confusion matrix over a stream of
// (predicted label, actual label) pairs. Any positive value is the
// positive class, so both the 0/1 and ±1 conventions work. It backs the
// per-class quality views (precision, recall, F1) an operator watches next
// to the scalar error rate.
type Confusion struct {
	tp, fp, tn, fn int64
}

// Name implements Metric.
func (c *Confusion) Name() string { return "confusion" }

// Observe implements Metric.
func (c *Confusion) Observe(pred, actual float64) {
	switch {
	case pred > 0 && actual > 0:
		c.tp++
	case pred > 0 && actual <= 0:
		c.fp++
	case pred <= 0 && actual <= 0:
		c.tn++
	default:
		c.fn++
	}
}

// Value implements Metric: the misclassification rate (so Confusion can
// drive the platform's prequential evaluation directly).
func (c *Confusion) Value() float64 {
	n := c.Count()
	if n == 0 {
		return 0
	}
	return float64(c.fp+c.fn) / float64(n)
}

// Count implements Metric.
func (c *Confusion) Count() int64 { return c.tp + c.fp + c.tn + c.fn }

// Reset implements Metric.
func (c *Confusion) Reset() { *c = Confusion{} }

// accuracy returns (TP+TN)/N, or 0 when empty.
func (c *Confusion) accuracy() float64 {
	n := c.Count()
	if n == 0 {
		return 0
	}
	return float64(c.tp+c.tn) / float64(n)
}

// precision returns TP/(TP+FP), or 0 when no positive was predicted.
func (c *Confusion) precision() float64 {
	if c.tp+c.fp == 0 {
		return 0
	}
	return float64(c.tp) / float64(c.tp+c.fp)
}

// recall returns TP/(TP+FN), or 0 when no positive was observed.
func (c *Confusion) recall() float64 {
	if c.tp+c.fn == 0 {
		return 0
	}
	return float64(c.tp) / float64(c.tp+c.fn)
}

// f1 returns the harmonic mean of precision and recall, or 0 when either
// is 0.
func (c *Confusion) f1() float64 {
	p, r := c.precision(), c.recall()
	//lint:allow floateq: both ratios are nonnegative; the sum is exactly 0 only when both are
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// String renders the matrix and derived rates.
func (c *Confusion) String() string {
	return fmt.Sprintf("tp=%d fp=%d tn=%d fn=%d acc=%.4f p=%.4f r=%.4f f1=%.4f",
		c.tp, c.fp, c.tn, c.fn, c.accuracy(), c.precision(), c.recall(), c.f1())
}
