package data

import (
	"container/list"
	"sync"
)

// TieredBackend layers a bounded in-memory LRU cache of feature chunks
// over a slower base backend (typically disk). It models the storage
// hierarchy of the paper's prototype, where hot feature chunks live in
// Spark's block cache while the historical tier sits on HDFS: fetches of
// recently used chunks are memory-speed, cold fetches pay the base
// backend's price and warm the cache. Raw chunks pass through uncached
// (they are only read in bulk during retraining and re-materialization).
type TieredBackend struct {
	base Backend

	mu      sync.Mutex
	cap     int                         //cdml:guardedby mu
	entries map[Timestamp]*list.Element //cdml:guardedby mu — value: tieredEntry
	lru     *list.List                  //cdml:guardedby mu — front = most recently used

	hits, misses int64 //cdml:guardedby mu
}

type tieredEntry struct {
	id Timestamp
	fc FeatureChunk
}

// NewTieredBackend wraps base with an LRU feature-chunk cache of the given
// capacity (chunks).
func NewTieredBackend(base Backend, capacity int) *TieredBackend {
	if capacity <= 0 {
		panic("data: tiered cache capacity must be positive")
	}
	return &TieredBackend{
		base:    base,
		cap:     capacity,
		entries: make(map[Timestamp]*list.Element),
		lru:     list.New(),
	}
}

// cacheStats returns the cache hit/miss counters.
func (t *TieredBackend) cacheStats() (hits, misses int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.hits, t.misses
}

// PutRaw implements Backend (pass-through).
func (t *TieredBackend) PutRaw(rc RawChunk) error { return t.base.PutRaw(rc) }

// GetRaw implements Backend (pass-through).
func (t *TieredBackend) GetRaw(id Timestamp) (RawChunk, error) { return t.base.GetRaw(id) }

// DeleteRaw implements Backend (pass-through).
func (t *TieredBackend) DeleteRaw(id Timestamp) error { return t.base.DeleteRaw(id) }

// PutFeatures implements Backend: writes through to the base and installs
// the chunk in the cache.
func (t *TieredBackend) PutFeatures(fc FeatureChunk) error {
	if err := t.base.PutFeatures(fc); err != nil {
		return err
	}
	t.mu.Lock()
	t.installLocked(fc)
	t.mu.Unlock()
	return nil
}

func (t *TieredBackend) installLocked(fc FeatureChunk) {
	if el, ok := t.entries[fc.ID]; ok {
		el.Value = tieredEntry{id: fc.ID, fc: fc}
		t.lru.MoveToFront(el)
		return
	}
	t.entries[fc.ID] = t.lru.PushFront(tieredEntry{id: fc.ID, fc: fc})
	for t.lru.Len() > t.cap {
		back := t.lru.Back()
		t.lru.Remove(back)
		delete(t.entries, back.Value.(tieredEntry).id)
	}
}

// GetFeatures implements Backend: served from the cache when hot, from the
// base otherwise (warming the cache).
func (t *TieredBackend) GetFeatures(id Timestamp) (FeatureChunk, error) {
	t.mu.Lock()
	if el, ok := t.entries[id]; ok {
		t.lru.MoveToFront(el)
		t.hits++
		fc := el.Value.(tieredEntry).fc
		t.mu.Unlock()
		return fc, nil
	}
	t.misses++
	t.mu.Unlock()
	fc, err := t.base.GetFeatures(id)
	if err != nil {
		return FeatureChunk{}, err
	}
	t.mu.Lock()
	t.installLocked(fc)
	t.mu.Unlock()
	return fc, nil
}

// DeleteFeatures implements Backend: evicts from both tiers.
func (t *TieredBackend) DeleteFeatures(id Timestamp) error {
	t.mu.Lock()
	if el, ok := t.entries[id]; ok {
		t.lru.Remove(el)
		delete(t.entries, id)
	}
	t.mu.Unlock()
	return t.base.DeleteFeatures(id)
}

// Close implements Backend.
func (t *TieredBackend) Close() error { return t.base.Close() }
