package data

import (
	"errors"
	"sync"
	"testing"
)

func tieredFixture(t *testing.T, capacity int) (*TieredBackend, *DiskBackend) {
	t.Helper()
	disk, err := NewDiskBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return NewTieredBackend(disk, capacity), disk
}

func fc(id Timestamp) FeatureChunk {
	return FeatureChunk{ID: id, RawID: id, Instances: mkInstances(2)}
}

func TestTieredHitAfterPut(t *testing.T) {
	tb, _ := tieredFixture(t, 2)
	if err := tb.PutFeatures(fc(1)); err != nil {
		t.Fatal(err)
	}
	got, err := tb.GetFeatures(1)
	if err != nil || got.ID != 1 {
		t.Fatalf("get: %v", err)
	}
	hits, misses := tb.cacheStats()
	if hits != 1 || misses != 0 {
		t.Fatalf("hits=%d misses=%d", hits, misses)
	}
}

func TestTieredColdFetchWarmsCache(t *testing.T) {
	tb, disk := tieredFixture(t, 2)
	// Write directly to the base so the cache is cold.
	if err := disk.PutFeatures(fc(7)); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.GetFeatures(7); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.GetFeatures(7); err != nil {
		t.Fatal(err)
	}
	hits, misses := tb.cacheStats()
	if misses != 1 || hits != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", hits, misses)
	}
}

func TestTieredLRUEviction(t *testing.T) {
	tb, _ := tieredFixture(t, 2)
	for id := Timestamp(1); id <= 3; id++ {
		if err := tb.PutFeatures(fc(id)); err != nil {
			t.Fatal(err)
		}
	}
	// 1 was evicted from the cache (capacity 2) but lives in the base.
	if _, err := tb.GetFeatures(1); err != nil {
		t.Fatal(err)
	}
	_, misses := tb.cacheStats()
	if misses != 1 {
		t.Fatalf("misses=%d, want 1 (chunk 1 evicted from hot tier)", misses)
	}
}

func TestTieredLRUTouchKeepsHot(t *testing.T) {
	tb, _ := tieredFixture(t, 2)
	_ = tb.PutFeatures(fc(1))
	_ = tb.PutFeatures(fc(2))
	if _, err := tb.GetFeatures(1); err != nil { // touch 1 → 2 is now LRU
		t.Fatal(err)
	}
	_ = tb.PutFeatures(fc(3)) // evicts 2
	if _, err := tb.GetFeatures(1); err != nil {
		t.Fatal(err)
	}
	hits, misses := tb.cacheStats()
	if hits != 2 || misses != 0 {
		t.Fatalf("hits=%d misses=%d after touch-based retention", hits, misses)
	}
}

func TestTieredDeleteEvictsBothTiers(t *testing.T) {
	tb, _ := tieredFixture(t, 4)
	_ = tb.PutFeatures(fc(5))
	if err := tb.DeleteFeatures(5); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.GetFeatures(5); !errors.Is(err, errNotFound) {
		t.Fatalf("deleted chunk still reachable: %v", err)
	}
}

func TestTieredRawPassThrough(t *testing.T) {
	tb, _ := tieredFixture(t, 2)
	if err := tb.PutRaw(RawChunk{ID: 9, Records: [][]byte{[]byte("r")}}); err != nil {
		t.Fatal(err)
	}
	rc, err := tb.GetRaw(9)
	if err != nil || string(rc.Records[0]) != "r" {
		t.Fatalf("raw pass-through: %v", err)
	}
	if err := tb.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestTieredBadCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTieredBackend(NewMemoryBackend(), 0)
}

func TestTieredConcurrent(t *testing.T) {
	tb := NewTieredBackend(NewMemoryBackend(), 8)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				id := Timestamp(i % 16)
				if g%2 == 0 {
					_ = tb.PutFeatures(fc(id))
				} else {
					_, _ = tb.GetFeatures(id)
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestStoreOverTieredBackend(t *testing.T) {
	// The full stack: Store (logical m-bounded materialization) over a
	// tiered backend (hot cache over disk).
	disk, err := NewDiskBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tb := NewTieredBackend(disk, 4)
	s := NewStore(tb, WithCapacity(8))
	for i := 0; i < 12; i++ {
		id, _ := s.AppendRaw([][]byte{[]byte("rec")})
		if err := s.PutFeatures(id, mkInstances(3)); err != nil {
			t.Fatal(err)
		}
	}
	if s.numMaterialized() != 8 {
		t.Fatalf("materialized = %d", s.numMaterialized())
	}
	// Fetch newest-first: the newest four hit the hot tier, the older
	// materialized ones come from disk.
	ids := s.RawIDs()[4:]
	for k := len(ids) - 1; k >= 0; k-- {
		ins, ok, err := s.Features(ids[k])
		if err != nil || !ok || len(ins) != 3 {
			t.Fatalf("chunk %d: ok=%v err=%v", ids[k], ok, err)
		}
	}
	hits, misses := tb.cacheStats()
	if hits == 0 || misses == 0 {
		t.Fatalf("expected mixed cache outcomes, hits=%d misses=%d", hits, misses)
	}
}
