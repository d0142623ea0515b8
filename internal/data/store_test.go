package data

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"cdml/internal/linalg"
	"cdml/internal/obs"
)

func mkInstances(n int) []Instance {
	out := make([]Instance, n)
	for i := range out {
		out[i] = Instance{X: linalg.Dense{float64(i), 1}, Y: float64(i % 2)}
	}
	return out
}

func testBackends(t *testing.T) map[string]Backend {
	t.Helper()
	disk, err := NewDiskBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Backend{"memory": NewMemoryBackend(), "disk": disk}
}

func TestBackendRoundTrip(t *testing.T) {
	for name, b := range testBackends(t) {
		t.Run(name, func(t *testing.T) {
			rc := RawChunk{ID: 7, Records: [][]byte{[]byte("hello"), []byte("world")}}
			if err := b.PutRaw(rc); err != nil {
				t.Fatal(err)
			}
			got, err := b.GetRaw(7)
			if err != nil {
				t.Fatal(err)
			}
			if string(got.Records[1]) != "world" {
				t.Fatalf("raw round trip: %q", got.Records)
			}

			fc := FeatureChunk{ID: 7, RawID: 7, Instances: []Instance{
				{X: linalg.Dense{1, 2}, Y: 1},
				{X: linalg.NewSparse(4, []int32{3}, []float64{5}), Y: 0},
			}}
			if err := b.PutFeatures(fc); err != nil {
				t.Fatal(err)
			}
			gf, err := b.GetFeatures(7)
			if err != nil {
				t.Fatal(err)
			}
			if gf.Instances[0].X.At(1) != 2 || gf.Instances[1].X.At(3) != 5 || gf.Instances[1].Y != 0 {
				t.Fatalf("feature round trip wrong: %+v", gf)
			}

			if _, err := b.GetRaw(99); !errors.Is(err, errNotFound) {
				t.Fatalf("missing raw: err = %v", err)
			}
			if _, err := b.GetFeatures(99); !errors.Is(err, errNotFound) {
				t.Fatalf("missing features: err = %v", err)
			}
			if err := b.DeleteFeatures(7); err != nil {
				t.Fatal(err)
			}
			if _, err := b.GetFeatures(7); !errors.Is(err, errNotFound) {
				t.Fatal("delete did not remove features")
			}
			if err := b.DeleteFeatures(7); err != nil {
				t.Fatal("double delete should be a no-op")
			}
			if err := b.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestStoreAppendAssignsMonotonicIDs(t *testing.T) {
	s := NewStore(NewMemoryBackend())
	for i := 0; i < 5; i++ {
		id, err := s.AppendRaw([][]byte{[]byte("r")})
		if err != nil {
			t.Fatal(err)
		}
		if id != Timestamp(i) {
			t.Fatalf("id = %d, want %d", id, i)
		}
	}
	ids := s.RawIDs()
	if len(ids) != 5 || ids[4] != 4 {
		t.Fatalf("RawIDs = %v", ids)
	}
	if s.NumRaw() != 5 {
		t.Fatalf("NumRaw = %d", s.NumRaw())
	}
}

func TestStoreEvictionOldestFirst(t *testing.T) {
	s := NewStore(NewMemoryBackend(), WithCapacity(2))
	for i := 0; i < 4; i++ {
		id, _ := s.AppendRaw([][]byte{[]byte("r")})
		if err := s.PutFeatures(id, mkInstances(3)); err != nil {
			t.Fatal(err)
		}
	}
	if s.numMaterialized() != 2 {
		t.Fatalf("materialized = %d, want 2", s.numMaterialized())
	}
	// Newest two (2, 3) survive.
	if s.isMaterialized(0) || s.isMaterialized(1) {
		t.Fatal("old chunks not evicted")
	}
	if !s.isMaterialized(2) || !s.isMaterialized(3) {
		t.Fatal("new chunks wrongly evicted")
	}
	if got := s.Stats().Evictions; got != 2 {
		t.Fatalf("evictions = %d, want 2", got)
	}
	// Evicted chunk: Features reports unmaterialized, raw still present.
	if _, ok, err := s.Features(0); err != nil || ok {
		t.Fatalf("evicted chunk should be unmaterialized (ok=%v err=%v)", ok, err)
	}
	if _, err := s.Raw(0); err != nil {
		t.Fatalf("raw chunk must survive eviction: %v", err)
	}
}

func TestStoreFeaturesRoundTrip(t *testing.T) {
	s := NewStore(NewMemoryBackend())
	id, _ := s.AppendRaw([][]byte{[]byte("r")})
	want := mkInstances(2)
	if err := s.PutFeatures(id, want); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Features(id)
	if err != nil || !ok {
		t.Fatalf("Features: ok=%v err=%v", ok, err)
	}
	if len(got) != 2 || got[1].X.At(0) != 1 {
		t.Fatalf("instances wrong: %+v", got)
	}
}

func TestStoreNoteRematerializedDefaultDiscards(t *testing.T) {
	s := NewStore(NewMemoryBackend(), WithCapacity(1))
	a, _ := s.AppendRaw(nil)
	b, _ := s.AppendRaw(nil)
	_ = s.PutFeatures(a, mkInstances(1))
	_ = s.PutFeatures(b, mkInstances(1)) // evicts a
	s.NoteRematerialized()
	if s.isMaterialized(a) {
		t.Fatal("default policy must not restore rematerialized chunks")
	}
	if s.Stats().Rematerializations != 1 {
		t.Fatal("rematerialization not counted")
	}
}

func TestStoreNoteSampleMu(t *testing.T) {
	s := NewStore(NewMemoryBackend())
	s.NoteSample(3, 1) // 0.75
	s.NoteSample(1, 1) // 0.5
	s.NoteSample(0, 0) // counts as 1.0 (nothing sampled → nothing missed)
	st := s.Stats()
	if st.Hits != 4 || st.Misses != 2 || st.Ops != 3 {
		t.Fatalf("stats = %+v", st)
	}
	want := (0.75 + 0.5 + 1.0) / 3
	if got := st.Mu(); got != want {
		t.Fatalf("Mu = %v, want %v", got, want)
	}
	var empty MatStats
	if empty.Mu() != 1 {
		t.Fatal("empty Mu should be 1")
	}
}

func TestStoreUnlimitedCapacity(t *testing.T) {
	s := NewStore(NewMemoryBackend())
	for i := 0; i < 50; i++ {
		id, _ := s.AppendRaw(nil)
		_ = s.PutFeatures(id, mkInstances(1))
	}
	if s.numMaterialized() != 50 {
		t.Fatalf("unlimited store evicted: %d", s.numMaterialized())
	}
}

// Property: with capacity m, after k PutFeatures in id order exactly
// min(k, m) newest chunks remain materialized.
func TestQuickStoreEvictionInvariant(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := r.Intn(10)
		k := 1 + r.Intn(30)
		s := NewStore(NewMemoryBackend(), WithCapacity(m))
		var ids []Timestamp
		for i := 0; i < k; i++ {
			id, err := s.AppendRaw(nil)
			if err != nil {
				return false
			}
			if err := s.PutFeatures(id, mkInstances(1)); err != nil {
				return false
			}
			ids = append(ids, id)
		}
		want := m
		if k < m {
			want = k
		}
		if s.numMaterialized() != want {
			return false
		}
		for i, id := range ids {
			mat := s.isMaterialized(id)
			shouldBe := i >= k-want
			if mat != shouldBe {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestStoreWithDiskBackend(t *testing.T) {
	disk, err := NewDiskBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore(disk, WithCapacity(2))
	for i := 0; i < 3; i++ {
		id, _ := s.AppendRaw([][]byte{[]byte("rec")})
		if err := s.PutFeatures(id, mkInstances(4)); err != nil {
			t.Fatal(err)
		}
	}
	got, ok, err := s.Features(2)
	if err != nil || !ok || len(got) != 4 {
		t.Fatalf("disk store features: ok=%v err=%v", ok, err)
	}
	if _, ok, _ := s.Features(0); ok {
		t.Fatal("evicted chunk should be gone from disk")
	}
	rc, err := s.Raw(0)
	if err != nil || string(rc.Records[0]) != "rec" {
		t.Fatalf("raw from disk: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestFeatureBytes(t *testing.T) {
	dense := []Instance{{X: linalg.Dense{1, 2, 3}, Y: 1}}
	if got := featureBytes(dense); got != featHeader+3*8+12 {
		t.Fatalf("dense bytes = %d", got)
	}
	sparse := []Instance{{X: linalg.NewSparse(1000, []int32{1, 2}, []float64{1, 1}), Y: 0}}
	if got := featureBytes(sparse); got != featHeader+2*8+2*4+12 {
		t.Fatalf("sparse bytes = %d", got)
	}
}

func TestEncodeDecodeChunkErrors(t *testing.T) {
	if _, err := decodeFeatureChunk([]byte("garbage")); err == nil {
		t.Fatal("expected decode error")
	}
	if _, err := decodeRawChunk([]byte("garbage")); err == nil {
		t.Fatal("expected decode error")
	}
}

func TestStoreRawCapacityDropsOldest(t *testing.T) {
	s := NewStore(NewMemoryBackend(), WithRawCapacity(3), WithCapacity(3))
	for i := 0; i < 5; i++ {
		id, err := s.AppendRaw([][]byte{[]byte("r")})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.PutFeatures(id, mkInstances(1)); err != nil {
			t.Fatal(err)
		}
	}
	ids := s.RawIDs()
	if len(ids) != 3 || ids[0] != 2 {
		t.Fatalf("RawIDs = %v, want newest 3", ids)
	}
	// Dropped raw chunks are physically gone.
	if _, err := s.Raw(0); !errors.Is(err, errNotFound) {
		t.Fatalf("dropped raw chunk still readable: %v", err)
	}
	// Their feature chunks are gone too.
	if s.isMaterialized(0) || s.isMaterialized(1) {
		t.Fatal("dropped chunks still materialized")
	}
	// Surviving chunks work.
	if _, ok, err := s.Features(4); err != nil || !ok {
		t.Fatalf("newest chunk lost: ok=%v err=%v", ok, err)
	}
}

func TestStoreRawCapacityWithDisk(t *testing.T) {
	disk, err := NewDiskBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore(disk, WithRawCapacity(2))
	for i := 0; i < 4; i++ {
		if _, err := s.AppendRaw([][]byte{[]byte("r")}); err != nil {
			t.Fatal(err)
		}
	}
	if len(s.RawIDs()) != 2 {
		t.Fatalf("RawIDs = %v", s.RawIDs())
	}
	if _, err := s.Raw(0); !errors.Is(err, errNotFound) {
		t.Fatal("dropped raw chunk file survived")
	}
	if _, err := s.Raw(3); err != nil {
		t.Fatal(err)
	}
}

func TestStoreUnlimitedRawCapacity(t *testing.T) {
	s := NewStore(NewMemoryBackend())
	for i := 0; i < 30; i++ {
		if _, err := s.AppendRaw(nil); err != nil {
			t.Fatal(err)
		}
	}
	if s.NumRaw() != 30 {
		t.Fatalf("NumRaw = %d", s.NumRaw())
	}
}

// RawIDs hands out a view of the store's own history instead of a copy; what
// the store does afterwards must not show through it.
func TestRawIDsIsAStableView(t *testing.T) {
	s := NewStore(NewMemoryBackend(), WithRawCapacity(6))
	appendN := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := s.AppendRaw([][]byte{[]byte("r")}); err != nil {
				t.Fatal(err)
			}
		}
	}
	appendN(4)
	view := s.RawIDs()
	if cap(view) != len(view) {
		t.Fatalf("view has spare capacity (%d > %d): an append on it would write the store's history", cap(view), len(view))
	}
	appendN(9) // appends beyond the view, then drops from the front
	for i, id := range view {
		if id != Timestamp(i) {
			t.Fatalf("view changed under the caller: %v", view)
		}
	}
	if got := s.RawIDs(); len(got) != 6 || got[0] != 7 || got[5] != 12 {
		t.Fatalf("RawIDs = %v, want 7..12", got)
	}
}

// cdml_store_bytes is the sum of the packed sizes of what is retained, kept
// in step by every put, re-put, eviction and raw-capacity drop.
func TestStoreBytesFollowsPutsEvictionsAndDrops(t *testing.T) {
	s := NewStore(NewMemoryBackend(), WithCapacity(2), WithRawCapacity(3))
	records := [][]byte{[]byte("abc"), []byte("de")}
	rawSize := int64(rawPayloadSize(records))
	want := func(raws int, feats ...int) {
		t.Helper()
		var featBytes int64
		for _, rows := range feats {
			featBytes += featureBytes(mkInstances(rows))
		}
		if raw, features := s.Bytes(); raw != int64(raws)*rawSize || features != featBytes {
			t.Fatalf("Bytes() = %d, %d; want %d, %d", raw, features, int64(raws)*rawSize, featBytes)
		}
	}
	put := func(rows int) Timestamp {
		t.Helper()
		id, err := s.AppendRaw(records)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.PutFeatures(id, mkInstances(rows)); err != nil {
			t.Fatal(err)
		}
		return id
	}
	want(0)
	put(1)
	id := put(2)
	want(2, 1, 2)
	if err := s.PutFeatures(id, mkInstances(5)); err != nil { // a re-put replaces, it does not add
		t.Fatal(err)
	}
	want(2, 1, 5)
	put(3) // evicts the 1-row chunk
	want(3, 5, 3)
	put(4) // drops the oldest raw chunk, evicts the 5-row chunk
	want(3, 3, 4)

	reg := obs.NewRegistry()
	s.Instrument(reg, obs.L("deployment", "d"))
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		fmt.Sprintf(`cdml_store_bytes{deployment="d",kind="raw"} %d`, 3*rawSize),
		fmt.Sprintf(`cdml_store_bytes{deployment="d",kind="features"} %d`, featureBytes(mkInstances(3))+featureBytes(mkInstances(4))),
	} {
		if !strings.Contains(b.String(), line) {
			t.Errorf("exposition lacks %q:\n%s", line, b.String())
		}
	}
}
