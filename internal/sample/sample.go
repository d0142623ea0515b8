// Package sample implements the data manager's chunk sampling strategies
// (paper §4.2) — uniform, window-based, and time-based — together with the
// analytical estimates of the materialization utilization rate μ from
// paper §3.2.2 (Formulas 4 and 5).
//
// All strategies sample without replacement over the chunk identifiers held
// by the data manager, which arrive in increasing timestamp order.
package sample

import (
	"fmt"
	"math/rand"

	"cdml/internal/data"
)

// Strategy draws a without-replacement sample of chunk identifiers.
type Strategy interface {
	// Name identifies the strategy ("uniform", "window", "time").
	Name() string
	// Sample draws up to s distinct ids from ids, which must be sorted in
	// increasing (oldest-first) order. Fewer than s ids are returned when
	// the eligible population is smaller than s. The result order is
	// unspecified.
	Sample(ids []data.Timestamp, s int) []data.Timestamp
}

// Uniform samples every chunk with equal probability.
type Uniform struct {
	rng *rand.Rand
}

// NewUniform returns a uniform sampler with its own deterministic PRNG.
func NewUniform(seed int64) *Uniform {
	return &Uniform{rng: rand.New(rand.NewSource(seed))}
}

// Name implements Strategy.
func (u *Uniform) Name() string { return "uniform" }

// Sample implements Strategy via a partial Fisher-Yates shuffle.
func (u *Uniform) Sample(ids []data.Timestamp, s int) []data.Timestamp {
	return partialShuffle(u.rng, ids, s)
}

// Window samples uniformly from the most recent W chunks only.
type Window struct {
	// W is the number of chunks in the active window.
	W   int
	rng *rand.Rand
}

// NewWindow returns a window-based sampler over the w most recent chunks.
func NewWindow(w int, seed int64) *Window {
	if w <= 0 {
		panic("sample: window size must be positive")
	}
	return &Window{W: w, rng: rand.New(rand.NewSource(seed))}
}

// Name implements Strategy.
func (w *Window) Name() string { return "window" }

// Sample implements Strategy.
func (w *Window) Sample(ids []data.Timestamp, s int) []data.Timestamp {
	if len(ids) > w.W {
		ids = ids[len(ids)-w.W:]
	}
	return partialShuffle(w.rng, ids, s)
}

// Time samples with probability increasing in recency: the i-th oldest of n
// chunks carries weight i+1, so recent chunks are favored while old chunks
// always retain non-zero probability.
type Time struct {
	rng *rand.Rand
}

// NewTime returns a time-based sampler with linear recency weighting.
func NewTime(seed int64) *Time {
	return &Time{rng: rand.New(rand.NewSource(seed))}
}

// Name implements Strategy.
func (t *Time) Name() string { return "time" }

// Sample implements Strategy using the Efraimidis-Spirakis weighted
// reservoir in its exponential form: element i draws e_i = Exp(1)/w_i and
// the s smallest draws win (equivalent to taking the s largest u^(1/w)
// keys, since −ln u ~ Exp(1), but without any math.Pow in the loop). A
// size-s max-heap keeps the draw O(n log s) — the data manager samples on
// every proactive training, so this path is hot.
func (t *Time) Sample(ids []data.Timestamp, s int) []data.Timestamp {
	if s >= len(ids) {
		return append([]data.Timestamp(nil), ids...)
	}
	if s <= 0 {
		return nil
	}
	heapIDs := make([]data.Timestamp, 0, s)
	heapKeys := make([]float64, 0, s) // max-heap over e_i: root = worst kept
	siftDown := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			max := i
			if l < len(heapKeys) && heapKeys[l] > heapKeys[max] {
				max = l
			}
			if r < len(heapKeys) && heapKeys[r] > heapKeys[max] {
				max = r
			}
			if max == i {
				return
			}
			heapKeys[i], heapKeys[max] = heapKeys[max], heapKeys[i]
			heapIDs[i], heapIDs[max] = heapIDs[max], heapIDs[i]
			i = max
		}
	}
	for i, id := range ids {
		e := t.rng.ExpFloat64() / float64(i+1)
		if len(heapKeys) < s {
			heapKeys = append(heapKeys, e)
			heapIDs = append(heapIDs, id)
			if len(heapKeys) == s { // heapify once full
				for j := s/2 - 1; j >= 0; j-- {
					siftDown(j)
				}
			}
			continue
		}
		if e < heapKeys[0] {
			heapKeys[0] = e
			heapIDs[0] = id
			siftDown(0)
		}
	}
	return heapIDs
}

// partialShuffle draws min(s, len(ids)) distinct elements uniformly.
func partialShuffle(rng *rand.Rand, ids []data.Timestamp, s int) []data.Timestamp {
	n := len(ids)
	if s > n {
		s = n
	}
	if s <= 0 {
		return nil
	}
	pool := append([]data.Timestamp(nil), ids...)
	for i := 0; i < s; i++ {
		j := i + rng.Intn(n-i)
		pool[i], pool[j] = pool[j], pool[i]
	}
	return pool[:s]
}

// New constructs a strategy by name: "uniform", "window" (requires w > 0),
// or "time".
func New(name string, w int, seed int64) (Strategy, error) {
	switch name {
	case "uniform":
		return NewUniform(seed), nil
	case "window":
		if w <= 0 {
			return nil, fmt.Errorf("sample: window strategy requires positive window size, got %d", w)
		}
		return NewWindow(w, seed), nil
	case "time":
		return NewTime(seed), nil
	default:
		return nil, fmt.Errorf("sample: unknown strategy %q", name)
	}
}
