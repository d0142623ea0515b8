package data

import (
	"fmt"
	"sort"
	"sync"

	"cdml/internal/obs"
)

// MatStats accumulates materialization-utilization accounting across
// sampling operations. The empirical μ of paper §3.2.2 / Table 4 is
// Hits / (Hits + Misses) averaged per operation.
type MatStats struct {
	// Hits counts sampled chunks that were materialized.
	Hits int64
	// Misses counts sampled chunks that required re-materialization.
	Misses int64
	// Ops counts sampling operations.
	Ops int64
	// MuSum accumulates the per-operation materialized ratio; MuSum/Ops is
	// the average materialization utilization rate μ.
	MuSum float64
	// Evictions counts feature chunks evicted by the capacity policy.
	Evictions int64
	// Rematerializations counts feature chunks rebuilt from raw chunks.
	Rematerializations int64
}

// Mu returns the average per-operation materialization utilization rate, or
// 1 when no sampling operation has happened (nothing needed
// re-materialization).
func (s *MatStats) Mu() float64 {
	if s.Ops == 0 {
		return 1
	}
	return s.MuSum / float64(s.Ops)
}

// Store is the data manager's chunk store: at most N (WithRawCapacity) raw
// chunks are retained, the oldest dropped first, while at most m
// (WithCapacity) feature chunks stay materialized. When m is exceeded the
// oldest feature chunks are evicted — only the identifier and the reference
// to the raw chunk survive — and a later sample hitting an evicted chunk
// triggers dynamic re-materialization by the caller (paper §3.2).
type Store struct {
	mu      sync.Mutex
	backend Backend
	// capacity is the maximum number of materialized feature chunks (m in
	// the paper's analysis). Negative means unlimited.
	capacity int
	// rawCapacity bounds the number of retained raw chunks (N in the
	// paper's analysis: "the size of the storage unit dedicated for raw
	// data chunks"). When exceeded the oldest raw chunks are dropped and
	// the platform simply ignores them during sampling (§3.2). Negative
	// means unlimited.
	rawCapacity int //cdml:guardedby mu

	// appendMu serializes AppendRaw, so the index grows in id order while
	// the backend put runs outside mu.
	appendMu sync.Mutex
	next     Timestamp //cdml:guardedby appendMu — id of the next chunk the backend takes

	rawIDs       []Timestamp         //cdml:guardedby mu — all raw chunk ids, increasing; only ever appended to and re-sliced from the front (RawIDs hands out views)
	rawSizes     []int64             //cdml:guardedby mu — packed size of each raw chunk, parallel to rawIDs
	materialized []Timestamp         //cdml:guardedby mu — ids of materialized feature chunks, increasing, a subset of rawIDs
	matSize      map[Timestamp]int64 //cdml:guardedby mu — packed size of each materialized feature chunk; presence is membership
	rawBytes     int64               //cdml:guardedby mu — sum of rawSizes
	featBytes    int64               //cdml:guardedby mu — sum of matSize
	stats        MatStats            //cdml:guardedby mu
}

// StoreOption configures a Store.
type StoreOption func(*Store)

// WithCapacity bounds the number of materialized feature chunks to m.
// Negative means unlimited (the default).
func WithCapacity(m int) StoreOption {
	return func(s *Store) { s.capacity = m }
}

// WithRawCapacity bounds the number of retained raw chunks to n (the
// paper's N). Older raw chunks are dropped together with their feature
// chunks; sampling never sees them again. Negative means unlimited (the
// default).
func WithRawCapacity(n int) StoreOption {
	return func(s *Store) { s.SetRawCapacity(n) }
}

// NewStore returns a store over the given backend.
func NewStore(b Backend, opts ...StoreOption) *Store {
	s := &Store{backend: b, capacity: -1, rawCapacity: -1, matSize: make(map[Timestamp]int64)}
	for _, o := range opts {
		o(s)
	}
	return s
}

// SetRawCapacity is WithRawCapacity on a built store: the deployment
// registry bounds every store it is handed. A store already holding more
// than n chunks drops the excess, oldest first, on its next AppendRaw.
func (s *Store) SetRawCapacity(n int) {
	s.mu.Lock()
	s.rawCapacity = n
	s.mu.Unlock()
}

// AppendRaw discretizes one batch of records into a new raw chunk, assigns
// the next timestamp, persists it, and returns its id. Only a chunk the
// backend took enters the index — a failed put leaves no id for a sample to
// draw, and the next append reuses its timestamp. When the raw capacity N
// is exceeded the oldest raw chunks (and their feature chunks) are dropped.
func (s *Store) AppendRaw(records [][]byte) (Timestamp, error) {
	s.appendMu.Lock()
	defer s.appendMu.Unlock()
	id := s.next
	if err := s.backend.PutRaw(RawChunk{ID: id, Records: records}); err != nil {
		return 0, fmt.Errorf("data: appending raw chunk: %w", err)
	}
	s.next++
	size := int64(rawPayloadSize(records))
	s.mu.Lock()
	s.rawIDs = append(s.rawIDs, id)
	s.rawSizes = append(s.rawSizes, size)
	s.rawBytes += size
	drop := make([]Timestamp, 0, 1) // past N, one chunk in drops one
	for s.rawCapacity >= 0 && len(s.rawIDs) > s.rawCapacity {
		victim := s.rawIDs[0]
		s.rawBytes -= s.rawSizes[0]
		s.rawIDs, s.rawSizes = s.rawIDs[1:], s.rawSizes[1:]
		drop = append(drop, victim)
		if size, ok := s.matSize[victim]; ok {
			// materialized ⊆ rawIDs, both increasing: the oldest raw
			// chunk's features are the oldest materialized.
			s.featBytes -= size
			delete(s.matSize, victim)
			s.materialized = s.materialized[1:]
		}
	}
	s.mu.Unlock()
	for _, victim := range drop {
		if err := s.backend.DeleteFeatures(victim); err != nil {
			return 0, fmt.Errorf("data: dropping feature chunk %d with its raw chunk: %w", victim, err)
		}
		if err := s.backend.DeleteRaw(victim); err != nil {
			return 0, fmt.Errorf("data: dropping raw chunk %d: %w", victim, err)
		}
	}
	return id, nil
}

// PutFeatures stores the preprocessed features of raw chunk rawID, which
// must still be retained (the id AppendRaw just returned), and applies the
// eviction policy.
func (s *Store) PutFeatures(rawID Timestamp, instances []Instance) error {
	fc := FeatureChunk{ID: rawID, RawID: rawID, Instances: instances}
	if err := s.backend.PutFeatures(fc); err != nil {
		return fmt.Errorf("data: storing feature chunk: %w", err)
	}
	size := featureBytes(instances)
	s.mu.Lock()
	defer s.mu.Unlock()
	old, ok := s.matSize[rawID]
	if !ok {
		s.insertMaterializedLocked(rawID)
	}
	s.matSize[rawID] = size
	s.featBytes += size - old
	return s.evictLocked()
}

func (s *Store) insertMaterializedLocked(id Timestamp) {
	n := len(s.materialized)
	if n == 0 || s.materialized[n-1] < id {
		s.materialized = append(s.materialized, id)
		return
	}
	k := sort.Search(n, func(i int) bool { return s.materialized[i] >= id })
	s.materialized = append(s.materialized, 0)
	copy(s.materialized[k+1:], s.materialized[k:])
	s.materialized[k] = id
}

// evictLocked removes the oldest materialized chunks until within capacity.
func (s *Store) evictLocked() error {
	if s.capacity < 0 {
		return nil
	}
	for len(s.materialized) > s.capacity {
		victim := s.materialized[0]
		s.materialized = s.materialized[1:]
		s.featBytes -= s.matSize[victim]
		delete(s.matSize, victim)
		s.stats.Evictions++
		if err := s.backend.DeleteFeatures(victim); err != nil {
			return fmt.Errorf("data: evicting feature chunk %d: %w", victim, err)
		}
	}
	return nil
}

// RawIDs returns the ids of all raw chunks in increasing order: a read-only
// view of the store's own history, not a copy — every proactive training
// asks, and the history is up to N chunks long. The view is a
// snapshot: its capacity is clipped to its length, later appends land beyond
// it and raw-capacity drops only re-slice the store's front, so nothing the
// store does afterwards changes what the caller sees. The caller must not
// write to it.
func (s *Store) RawIDs() []Timestamp {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rawIDs[:len(s.rawIDs):len(s.rawIDs)]
}

// NumRaw returns the number of raw chunks (n in the μ analysis).
func (s *Store) NumRaw() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.rawIDs)
}

// numMaterialized returns the number of materialized feature chunks.
func (s *Store) numMaterialized() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.materialized)
}

// isMaterialized reports whether the feature chunk for id is materialized.
func (s *Store) isMaterialized(id Timestamp) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.matSize[id]
	return ok
}

// Raw fetches a raw chunk.
func (s *Store) Raw(id Timestamp) (RawChunk, error) {
	return s.backend.GetRaw(id)
}

// Features fetches a materialized feature chunk. The boolean is false when
// the chunk has been evicted (or never materialized); the caller must then
// re-materialize from the raw chunk and report it via NoteRematerialized.
func (s *Store) Features(id Timestamp) ([]Instance, bool, error) {
	if !s.isMaterialized(id) {
		return nil, false, nil
	}
	fc, err := s.backend.GetFeatures(id)
	if err != nil {
		return nil, false, fmt.Errorf("data: fetching feature chunk %d: %w", id, err)
	}
	return fc.Instances, true, nil
}

// NoteRematerialized records that the caller rebuilt a feature chunk from
// its raw chunk. The rebuilt chunk is used once and not stored again, which
// keeps the materialized set equal to the newest m chunks, matching the μ
// analysis of §3.2.2.
func (s *Store) NoteRematerialized() {
	s.mu.Lock()
	s.stats.Rematerializations++
	s.mu.Unlock()
}

// NoteSample records the hit/miss outcome of one sampling operation for μ
// accounting: hits sampled chunks were materialized, misses were not.
func (s *Store) NoteSample(hits, misses int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Hits += int64(hits)
	s.stats.Misses += int64(misses)
	s.stats.Ops++
	if hits+misses > 0 {
		s.stats.MuSum += float64(hits) / float64(hits+misses)
	} else {
		s.stats.MuSum++
	}
}

// Instrument registers the store's materialization accounting with reg:
// sampling hits/misses, evictions, re-materializations, the utilization
// rate μ, the raw/materialized chunk counts and the bytes they occupy at
// rest (the storage requirement of paper §3.2.1). All values are read at
// scrape time under the store lock, so instrumentation adds nothing to the
// ingest path. Safe to call more than once with the same registry. The
// optional labels are stamped on every series so per-deployment stores can
// share one registry without colliding (the registry keeps the first
// registration for a given name+labels pair).
func (s *Store) Instrument(reg *obs.Registry, labels ...obs.Label) {
	reg.CounterFunc("cdml_store_sample_hits_total",
		"Sampled chunks served from materialized features.",
		func() float64 { return float64(s.Stats().Hits) }, labels...)
	reg.CounterFunc("cdml_store_sample_misses_total",
		"Sampled chunks that required dynamic re-materialization.",
		func() float64 { return float64(s.Stats().Misses) }, labels...)
	reg.CounterFunc("cdml_store_evictions_total",
		"Feature chunks evicted by the materialization capacity policy.",
		func() float64 { return float64(s.Stats().Evictions) }, labels...)
	reg.CounterFunc("cdml_store_rematerializations_total",
		"Feature chunks rebuilt from raw chunks.",
		func() float64 { return float64(s.Stats().Rematerializations) }, labels...)
	reg.GaugeFunc("cdml_store_mu",
		"Average per-operation materialization utilization rate (paper §3.2.2).",
		func() float64 { st := s.Stats(); return st.Mu() }, labels...)
	reg.GaugeFunc("cdml_store_raw_chunks",
		"Raw chunks currently retained.",
		func() float64 { return float64(s.NumRaw()) }, labels...)
	reg.GaugeFunc("cdml_store_materialized_chunks",
		"Feature chunks currently materialized.",
		func() float64 { return float64(s.numMaterialized()) }, labels...)
	kind := func(k string) []obs.Label { return append(labels[:len(labels):len(labels)], obs.L("kind", k)) }
	const bytesHelp = "Bytes the retained chunks occupy at rest (packed payload sizes; paper §3.2.1)."
	reg.GaugeFunc("cdml_store_bytes", bytesHelp,
		func() float64 { raw, _ := s.Bytes(); return float64(raw) }, kind("raw")...)
	reg.GaugeFunc("cdml_store_bytes", bytesHelp,
		func() float64 { _, features := s.Bytes(); return float64(features) }, kind("features")...)
}

// Bytes returns what the retained raw chunks and the materialized feature
// chunks occupy at rest: the sums of their packed payload sizes, maintained
// on every put, eviction and drop.
func (s *Store) Bytes() (raw, features int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rawBytes, s.featBytes
}

// Stats returns a copy of the materialization accounting.
func (s *Store) Stats() MatStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Close releases the underlying backend.
func (s *Store) Close() error { return s.backend.Close() }
