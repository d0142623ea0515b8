package data

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// cachedIDs returns the tiered cache's contents from most- to
// least-recently used (test-only; walks the internal LRU list).
func (t *TieredBackend) cachedIDs() []Timestamp {
	t.mu.Lock()
	defer t.mu.Unlock()
	var ids []Timestamp
	for el := t.lru.Front(); el != nil; el = el.Next() {
		ids = append(ids, el.Value.(tieredEntry).id)
	}
	return ids
}

// refLRU is the map/slice reference model the property test compares the
// real cache against: order[0] is the most recently used id.
type refLRU struct {
	cap   int
	order []Timestamp
}

func (r *refLRU) touch(id Timestamp) {
	for i, v := range r.order {
		if v == id {
			copy(r.order[1:i+1], r.order[:i])
			r.order[0] = id
			return
		}
	}
	r.order = append([]Timestamp{id}, r.order...)
	if len(r.order) > r.cap {
		r.order = r.order[:r.cap]
	}
}

func (r *refLRU) delete(id Timestamp) {
	for i, v := range r.order {
		if v == id {
			r.order = append(r.order[:i], r.order[i+1:]...)
			return
		}
	}
}

func (r *refLRU) contains(id Timestamp) bool {
	for _, v := range r.order {
		if v == id {
			return true
		}
	}
	return false
}

// TestTieredLRUMatchesReferenceModel drives the cache and a trivially
// correct reference model through the same random op sequence and requires
// identical cache contents (set and recency order) after every step.
func TestTieredLRUMatchesReferenceModel(t *testing.T) {
	const (
		capacity = 8
		idSpace  = 24
		steps    = 4000
	)
	rng := rand.New(rand.NewSource(1234))
	base := NewMemoryBackend()
	tb := NewTieredBackend(base, capacity)
	ref := &refLRU{cap: capacity}
	// inBase tracks which feature chunks exist in the base backend, so the
	// model knows whether a Get is a warm-the-cache hit or an error.
	inBase := map[Timestamp]bool{}

	for step := 0; step < steps; step++ {
		id := Timestamp(rng.Intn(idSpace))
		switch op := rng.Intn(3); op {
		case 0: // PutFeatures: write-through + install at MRU
			if err := tb.PutFeatures(FeatureChunk{ID: id, RawID: id}); err != nil {
				t.Fatalf("step %d put %d: %v", step, id, err)
			}
			inBase[id] = true
			ref.touch(id)
		case 1: // GetFeatures: hit refreshes recency; base hit warms cache
			_, err := tb.GetFeatures(id)
			if inBase[id] {
				if err != nil {
					t.Fatalf("step %d get %d: %v", step, id, err)
				}
				ref.touch(id)
			} else if err == nil {
				t.Fatalf("step %d get %d: want miss", step, id)
			}
		case 2: // DeleteFeatures: evict from both tiers
			if err := tb.DeleteFeatures(id); err != nil {
				t.Fatalf("step %d delete %d: %v", step, id, err)
			}
			delete(inBase, id)
			ref.delete(id)
		}

		got := tb.cachedIDs()
		if len(got) != len(ref.order) {
			t.Fatalf("step %d: cache has %d entries, model %d\n got %v\nwant %v",
				step, len(got), len(ref.order), got, ref.order)
		}
		for i := range got {
			if got[i] != ref.order[i] {
				t.Fatalf("step %d: LRU order diverged at %d\n got %v\nwant %v",
					step, i, got, ref.order)
			}
		}
	}

	// Cross-check the membership view too: every cached id must be
	// base-resident (write-through invariant).
	for _, id := range tb.cachedIDs() {
		if !ref.contains(id) {
			t.Fatalf("cache holds %d, model does not", id)
		}
		if !inBase[id] {
			t.Fatalf("cache holds %d but base does not (write-through broken)", id)
		}
	}
}

// TestTieredConcurrentReadersWriters hammers the cache from concurrent
// readers, writers, and deleters (run under -race) and then checks the
// structural invariants: size within capacity, map and list in sync,
// counters consistent.
func TestTieredConcurrentReadersWriters(t *testing.T) {
	const (
		capacity = 16
		idSpace  = 64
		workers  = 8
		opsEach  = 500
	)
	base := NewMemoryBackend()
	tb := NewTieredBackend(base, capacity)
	// Preload so readers have something to hit.
	for i := 0; i < idSpace; i++ {
		if err := tb.PutFeatures(FeatureChunk{ID: Timestamp(i), RawID: Timestamp(i)}); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < opsEach; i++ {
				id := Timestamp(rng.Intn(idSpace))
				switch rng.Intn(4) {
				case 0:
					if err := tb.PutFeatures(FeatureChunk{ID: id, RawID: id}); err != nil {
						errCh <- fmt.Errorf("put %d: %w", id, err)
						return
					}
				case 1, 2:
					// Concurrent deletes make honest misses possible; only
					// unexpected error shapes are failures.
					if _, err := tb.GetFeatures(id); err != nil && !errors.Is(err, errNotFound) {
						errCh <- fmt.Errorf("get %d: %w", id, err)
						return
					}
				case 3:
					if err := tb.DeleteFeatures(id); err != nil {
						errCh <- fmt.Errorf("delete %d: %w", id, err)
						return
					}
				}
				if i%64 == 0 {
					tb.cacheStats() // races the counters against the ops
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	tb.mu.Lock()
	if tb.lru.Len() > capacity {
		t.Errorf("cache over capacity: %d > %d", tb.lru.Len(), capacity)
	}
	if len(tb.entries) != tb.lru.Len() {
		t.Errorf("entries map (%d) and lru list (%d) out of sync", len(tb.entries), tb.lru.Len())
	}
	for el := tb.lru.Front(); el != nil; el = el.Next() {
		id := el.Value.(tieredEntry).id
		if tb.entries[id] != el {
			t.Errorf("entries[%d] does not point at its list element", id)
		}
	}
	tb.mu.Unlock()

	hits, misses := tb.cacheStats()
	if hits+misses == 0 {
		t.Error("no cache traffic recorded; test is vacuous")
	}
}
