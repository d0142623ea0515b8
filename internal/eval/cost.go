package eval

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"
)

// Category classifies where deployment time is spent.
type Category string

// The cost categories of the paper's deployment-cost definition (§5.2):
// "the total time spent in data preprocessing, model training, and
// performing prediction", plus storage IO which we break out separately
// because dynamic materialization trades compute against it.
const (
	CatPreprocess Category = "preprocess"
	CatTrain      Category = "train"
	CatPredict    Category = "predict"
	CatIO         Category = "io"
)

// CostClock accumulates wall-clock time by category. It is safe for
// concurrent use and lock-free: the serving path charges CatPredict on every
// query while training charges CatTrain, so sharing a mutex here would
// reintroduce exactly the reader/writer coupling the snapshot architecture
// removes. The four categories above are all there are: charging or reading
// any other is a programming error, and panics.
//
// The clock is //cdml:mutable — the one deliberately live object reachable
// from a published core.Snapshot (Result.Cost): it keeps accumulating after
// publish, and being four atomics is what makes that safe. The marker prunes
// it from snapfreeze's immutability closure.
//
//cdml:mutable
type CostClock struct {
	// nanos holds the nanoseconds charged to each category, indexed by
	// catIndex.
	nanos [numCats]atomic.Int64
}

const numCats = 4

// catIndex maps a category to its fixed atomic slot.
//
//cdml:hotpath
func catIndex(c Category) int {
	switch c {
	case CatPreprocess:
		return 0
	case CatTrain:
		return 1
	case CatPredict:
		return 2
	case CatIO:
		return 3
	}
	panic("eval: unknown cost category " + string(c))
}

// NewCostClock returns an empty clock.
func NewCostClock() *CostClock {
	return &CostClock{}
}

// Add charges d to category c.
//
//cdml:hotpath
func (cc *CostClock) Add(c Category, d time.Duration) {
	cc.nanos[catIndex(c)].Add(int64(d))
}

// Time runs f and charges its duration to category c.
func (cc *CostClock) Time(c Category, f func()) {
	start := time.Now()
	f()
	cc.Add(c, time.Since(start))
}

// TimeErr runs f and charges its duration to category c, passing through
// f's error.
func (cc *CostClock) TimeErr(c Category, f func() error) error {
	start := time.Now()
	err := f()
	cc.Add(c, time.Since(start))
	return err
}

// Get returns the time charged to category c.
//
//cdml:hotpath
func (cc *CostClock) Get(c Category) time.Duration {
	return time.Duration(cc.nanos[catIndex(c)].Load())
}

// Total returns the time charged across all categories — the paper's
// deployment cost.
func (cc *CostClock) Total() time.Duration {
	var t time.Duration
	for i := range cc.nanos {
		t += time.Duration(cc.nanos[i].Load())
	}
	return t
}

// Breakdown returns a stable, human-readable summary of the non-zero
// categories, in alphabetical order.
func (cc *CostClock) Breakdown() string {
	var parts []string
	for _, c := range [numCats]Category{CatIO, CatPredict, CatPreprocess, CatTrain} {
		if d := cc.Get(c); d != 0 {
			parts = append(parts, fmt.Sprintf("%s=%v", c, d.Round(time.Microsecond)))
		}
	}
	return strings.Join(parts, " ")
}

// Reset clears the clock.
func (cc *CostClock) Reset() {
	for i := range cc.nanos {
		cc.nanos[i].Store(0)
	}
}

// Series is an (x, y) curve recorded during a deployment run — the raw
// material of the paper's over-time figures (cumulative error and
// cumulative cost).
type Series struct {
	// Name labels the curve (e.g. "continuous").
	Name string
	// Max, when positive, bounds the retained points — a live deployment
	// records its curves without end. A full series drops every second point
	// and from then on retains every second one it is given, and so on: the
	// whole x range at a resolution that halves each time, the newest
	// retained point at most one step old. Mean is not affected.
	Max int
	// Xs is the x axis (chunk index / deployment time).
	Xs []float64
	// Ys is the y axis (error or cost at that x). Append is its only writer.
	Ys []float64
	// sum and n are the running total and count of every y Append was given,
	// retained or not, added up in append order — exactly the left-to-right
	// sum a loop over an unbounded Ys computes, so Mean is O(1) and
	// bit-identical to that loop. A bounded series retains every
	// 2^shift-th point.
	sum   float64
	n     int
	shift uint
}

// Append adds one point.
func (s *Series) Append(x, y float64) {
	s.sum += y
	s.n++
	if s.Max > 0 && len(s.Xs) >= s.Max {
		// Into fresh arrays, never in place: the Views handed out so far
		// still read the old ones.
		xs, ys := make([]float64, 0, s.Max), make([]float64, 0, s.Max)
		for i := 0; i < len(s.Xs); i += 2 {
			xs, ys = append(xs, s.Xs[i]), append(ys, s.Ys[i])
		}
		s.Xs, s.Ys = xs, ys
		s.shift++
	}
	if (s.n-1)&(1<<s.shift-1) != 0 {
		return // falls between two retained points
	}
	s.Xs = append(s.Xs, x)
	s.Ys = append(s.Ys, y)
}

// View returns a read-only view of the points recorded so far that stays
// valid while s keeps growing: the slices are capped at their length, so a
// later Append to s — in place or after a capacity grow — only writes
// indices the view cannot reach. A reader may iterate the view without
// synchronizing with the one goroutine that appends to s.
func (s *Series) View() *Series {
	nx, ny := len(s.Xs), len(s.Ys)
	return &Series{Name: s.Name, Xs: s.Xs[:nx:nx], Ys: s.Ys[:ny:ny], sum: s.sum, n: s.n}
}

// Len returns the number of retained points.
func (s *Series) Len() int { return len(s.Xs) }

// Mean returns the average y value over every point appended, or 0 when
// empty — the paper's "average error rate over the deployment".
func (s *Series) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

// Downsample returns a copy with at most n points, evenly spaced, always
// keeping the last point. It renders long deployments compactly.
func (s *Series) Downsample(n int) *Series {
	if n <= 0 || s.Len() <= n {
		return &Series{Name: s.Name, Xs: append([]float64(nil), s.Xs...), Ys: append([]float64(nil), s.Ys...), sum: s.sum, n: s.n}
	}
	out := &Series{Name: s.Name}
	step := float64(s.Len()-1) / float64(n-1)
	for i := 0; i < n; i++ {
		k := int(float64(i) * step)
		if i == n-1 {
			k = s.Len() - 1
		}
		out.Append(s.Xs[k], s.Ys[k])
	}
	return out
}
