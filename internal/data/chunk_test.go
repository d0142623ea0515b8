package data

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"cdml/internal/linalg"
	"cdml/internal/snapstream"
)

// randomValue draws from the values a packed chunk must keep bit for bit:
// ordinary numbers, explicit zeros, −0.0, infinities and a NaN payload.
func randomValue(r *rand.Rand) float64 {
	switch r.Intn(8) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return math.Inf(1 - 2*r.Intn(2))
	case 3:
		return math.Float64frombits(0x7ff8_0000_0000_0000 | uint64(r.Intn(1<<20)))
	default:
		return r.NormFloat64()
	}
}

func randomSparseRow(r *rand.Rand, dim int) *linalg.Sparse {
	s := &linalg.Sparse{N: dim}
	for i := 0; i < dim; i++ {
		if r.Intn(4) == 0 {
			s.Idx = append(s.Idx, int32(i))
			s.Val = append(s.Val, randomValue(r))
		}
	}
	return s
}

func randomDenseRow(r *rand.Rand) linalg.Dense {
	d := make(linalg.Dense, r.Intn(6))
	for i := range d {
		d[i] = randomValue(r)
	}
	return d
}

// randomChunk draws a feature chunk of the given kind: "dense", "sparse"
// (empty rows included) or "mixed"; zero rows is one of the outcomes.
func randomChunk(r *rand.Rand, id Timestamp, kind string) FeatureChunk {
	dim := 1 + r.Intn(40)
	fc := FeatureChunk{ID: id, RawID: id + Timestamp(r.Intn(2)), Instances: make([]Instance, r.Intn(12))}
	for i := range fc.Instances {
		sparse := kind == "sparse" || (kind == "mixed" && r.Intn(2) == 0)
		if sparse {
			fc.Instances[i].X = randomSparseRow(r, dim)
		} else {
			fc.Instances[i].X = randomDenseRow(r)
		}
		fc.Instances[i].Y = r.NormFloat64()
	}
	return fc
}

func randomRaw(r *rand.Rand, id Timestamp) RawChunk {
	rc := RawChunk{ID: id, Records: make([][]byte, r.Intn(10))}
	for i := range rc.Records {
		rc.Records[i] = make([]byte, r.Intn(3)*r.Intn(20)) // zero-length records included
		r.Read(rc.Records[i])
	}
	return rc
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// sameFeatures reports whether two chunks hold vectors of the same concrete
// kind with the same bits.
func sameFeatures(a, b FeatureChunk) bool {
	if a.ID != b.ID || a.RawID != b.RawID || len(a.Instances) != len(b.Instances) {
		return false
	}
	for i := range a.Instances {
		if math.Float64bits(a.Instances[i].Y) != math.Float64bits(b.Instances[i].Y) {
			return false
		}
		switch x := a.Instances[i].X.(type) {
		case linalg.Dense:
			y, ok := b.Instances[i].X.(linalg.Dense)
			if !ok || !sameBits(x, y) {
				return false
			}
		case *linalg.Sparse:
			y, ok := b.Instances[i].X.(*linalg.Sparse)
			if !ok || x.N != y.N || !sameBits(x.Val, y.Val) || len(x.Idx) != len(y.Idx) {
				return false
			}
			for k := range x.Idx {
				if x.Idx[k] != y.Idx[k] {
					return false
				}
			}
		}
	}
	return true
}

func sameRaw(a, b RawChunk) bool {
	if a.ID != b.ID || len(a.Records) != len(b.Records) {
		return false
	}
	for i := range a.Records {
		if !bytes.Equal(a.Records[i], b.Records[i]) {
			return false
		}
	}
	return true
}

// TestQuickPackedChunkRoundTrip: what goes into a backend comes out with the
// same bits and the same vector kinds, whichever backend it is, and the
// bytes the disk backend wrote are the encoding of what the memory backend
// returns — one format at rest.
func TestQuickPackedChunkRoundTrip(t *testing.T) {
	dir := t.TempDir()
	disk, err := NewDiskBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	mem := NewMemoryBackend()
	next := Timestamp(0)
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		for _, kind := range []string{"dense", "sparse", "mixed"} {
			next++
			fc, rc := randomChunk(r, next, kind), randomRaw(r, next)
			for name, b := range map[string]Backend{"memory": mem, "disk": disk} {
				if err := b.PutFeatures(fc); err != nil {
					t.Errorf("%s: put features: %v", name, err)
					return false
				}
				if err := b.PutRaw(rc); err != nil {
					t.Errorf("%s: put raw: %v", name, err)
					return false
				}
				gf, err := b.GetFeatures(fc.ID)
				if err != nil || !sameFeatures(fc, gf) {
					t.Errorf("%s %s chunk: got %+v (err %v), want %+v", name, kind, gf, err, fc)
					return false
				}
				gr, err := b.GetRaw(rc.ID)
				if err != nil || !sameRaw(rc, gr) {
					t.Errorf("%s raw chunk: got %q (err %v), want %q", name, gr.Records, err, rc.Records)
					return false
				}
			}
			gf, _ := mem.GetFeatures(fc.ID)
			gr, _ := mem.GetRaw(rc.ID)
			wantF, _ := encodeFeatureChunk(gf)
			wantR, _ := encodeRawChunk(gr)
			gotF, errF := os.ReadFile(disk.featPath(fc.ID))
			gotR, errR := os.ReadFile(disk.rawPath(rc.ID))
			if errF != nil || errR != nil || !bytes.Equal(gotF, wantF) || !bytes.Equal(gotR, wantR) {
				t.Errorf("disk bytes differ from the encoding of the memory backend's chunk (%v, %v)", errF, errR)
				return false
			}
			if featureBytes(fc.Instances) != int64(len(gotF)-frameOverhead) || rawPayloadSize(rc.Records) != len(gotR)-frameOverhead {
				t.Errorf("size accounting: features %d raw %d, files hold %d and %d payload bytes",
					featureBytes(fc.Instances), rawPayloadSize(rc.Records), len(gotF)-frameOverhead, len(gotR)-frameOverhead)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// The store used to alias what it was given: the request body behind the raw
// records, the transform's arrays behind the vectors. A Put copies.
func TestPutCopiesAndGetClips(t *testing.T) {
	for name, b := range testBackends(t) {
		t.Run(name, func(t *testing.T) {
			body := []byte("first|second|third")
			records := [][]byte{body[:5], body[6:12], body[13:]}
			sp := linalg.NewSparse(8, []int32{1, 5}, []float64{2, 3})
			dn := linalg.Dense{7, 8}
			ins := []Instance{{X: sp, Y: 1}, {X: dn, Y: -1}, {X: linalg.NewSparse(8, []int32{0}, []float64{4}), Y: 1}}
			if err := b.PutRaw(RawChunk{ID: 1, Records: records}); err != nil {
				t.Fatal(err)
			}
			if err := b.PutFeatures(FeatureChunk{ID: 1, RawID: 1, Instances: ins}); err != nil {
				t.Fatal(err)
			}
			copy(body, "XXXXXXXXXXXXXXXXXX")
			records[1] = nil
			sp.Val[0], sp.Idx[1], dn[1], ins[0].Y = 99, 7, 99, 99
			ins[2] = Instance{}

			rc, err := b.GetRaw(1)
			if err != nil || len(rc.Records) != 3 || string(rc.Records[0]) != "first" || string(rc.Records[1]) != "second" || string(rc.Records[2]) != "third" {
				t.Fatalf("raw chunk changed with the caller's buffer: %q, err %v", rc.Records, err)
			}
			fc, err := b.GetFeatures(1)
			if err != nil {
				t.Fatal(err)
			}
			s0, d1, s2 := fc.Instances[0].X.(*linalg.Sparse), fc.Instances[1].X.(linalg.Dense), fc.Instances[2].X.(*linalg.Sparse)
			if s0.Val[0] != 2 || s0.Idx[1] != 5 || d1[1] != 8 || fc.Instances[0].Y != 1 || s2.Val[0] != 4 {
				t.Fatalf("feature chunk changed with the caller's vectors: %+v", fc)
			}

			// An append on one row must reallocate, not write its neighbour
			// (in the arrays this view shares with the store, or with itself).
			_ = append(rc.Records[0], '!')
			_ = append(s0.Idx, 6)
			_ = append(s0.Val, 6)
			_ = append(d1, 6)
			if string(rc.Records[1]) != "second" || d1[0] != 7 || s2.Idx[0] != 0 || s2.Val[0] != 4 {
				t.Fatalf("an append on a returned row wrote its neighbour: %q %+v", rc.Records, fc)
			}
			for i, r := range rc.Records {
				if cap(r) != len(r) {
					t.Errorf("record %d: cap %d, len %d", i, cap(r), len(r))
				}
			}
		})
	}
}

func TestPackRejectsWhatHasNoPackedForm(t *testing.T) {
	mem := NewMemoryBackend()
	for name, ins := range map[string][]Instance{
		"nil vector":       {{X: nil, Y: 1}},
		"nil sparse":       {{X: (*linalg.Sparse)(nil), Y: 1}},
		"two dimensions":   {{X: linalg.NewSparse(4, nil, nil)}, {X: linalg.NewSparse(5, nil, nil)}},
		"idx/val mismatch": {{X: &linalg.Sparse{N: 4, Idx: []int32{1}}}},
	} {
		if err := mem.PutFeatures(FeatureChunk{ID: 1, Instances: ins}); err == nil {
			t.Errorf("%s: stored", name)
		}
	}
	if _, err := encodeFeatureChunk(FeatureChunk{Instances: []Instance{{X: linalg.Dense{1}, Y: math.NaN()}}}); err == nil {
		t.Error("a NaN label was encoded; the decoder would refuse the file")
	}
}

// validEncodings are the fuzz seeds and the base of the corruption table:
// dense, sparse, mixed and empty chunks.
func validEncodings(t testing.TB) (features, raws [][]byte) {
	t.Helper()
	r := rand.New(rand.NewSource(1))
	chunks := []FeatureChunk{{ID: 3, RawID: 3}}
	for _, kind := range []string{"dense", "sparse", "mixed"} {
		fc := randomChunk(r, 9, kind)
		for len(fc.Instances) < 3 {
			fc = randomChunk(r, 9, kind)
		}
		chunks = append(chunks, fc)
	}
	for _, fc := range chunks {
		b, err := encodeFeatureChunk(fc)
		if err != nil {
			t.Fatal(err)
		}
		features = append(features, b)
	}
	for _, rc := range []RawChunk{{ID: 4}, {ID: 5, Records: [][]byte{[]byte("a\tb"), {}, []byte("label 1")}}} {
		b, err := encodeRawChunk(rc)
		if err != nil {
			t.Fatal(err)
		}
		raws = append(raws, b)
	}
	return features, raws
}

// frameOverhead is what a chunk file holds besides its payload; the payload
// starts after magic, version and length.
var frameOverhead = snapstream.EncodedLen(snapstream.Frame{})

const payloadStart = 24

// reframe rebuilds magic, length, version and CRC around payload, so a test
// reaches the checks behind them.
func reframe(magic string, payload []byte) []byte {
	var id uint64
	if len(payload) >= 8 {
		id = le.Uint64(payload)
	}
	return frameChunk(magic, Timestamp(id), payload)
}

func TestDecodersRejectCorruptChunks(t *testing.T) {
	sparse, err := encodeFeatureChunk(FeatureChunk{ID: 1, RawID: 1, Instances: []Instance{
		{X: linalg.NewSparse(8, []int32{1, 5}, []float64{2, 3}), Y: 1},
		{X: linalg.NewSparse(8, []int32{2}, []float64{4}), Y: 0},
	}})
	if err != nil {
		t.Fatal(err)
	}
	dense, _ := encodeFeatureChunk(FeatureChunk{ID: 1, RawID: 1, Instances: []Instance{{X: linalg.Dense{1, 2}, Y: 1}}})
	raw, _ := encodeRawChunk(RawChunk{ID: 1, Records: [][]byte{[]byte("ab"), []byte("cde")}})
	payload := func(b []byte) []byte { return append([]byte(nil), b[payloadStart:len(b)-4]...) }
	sp, dp, rp := payload(sparse), payload(dense), payload(raw)
	// patch writes v at a payload offset and reframes, like reframe.
	patch := func(magic string, pl []byte, off int, v uint32) []byte {
		c := append([]byte(nil), pl...)
		le.PutUint32(c[off:], v)
		return reframe(magic, c)
	}
	fp := func(pl []byte, off int, v uint32) []byte { return patch(featMagic, pl, off, v) }
	rows, idx, labels := featHeader, featHeader+8, featHeader+8+12
	for name, b := range map[string][]byte{
		"empty":                  nil,
		"short":                  sparse[:10],
		"raw magic":              append([]byte(rawMagic), sparse[8:]...),
		"bit flip, stale crc":    append(append([]byte(nil), sparse[:len(sparse)-1]...), sparse[len(sparse)-1]^1),
		"bytes after the frame":  append(append([]byte(nil), sparse...), 0),
		"version is not the id":  frameChunk(featMagic, 2, sp),
		"truncated, reframed":    reframe(featMagic, sp[:len(sp)-8]),
		"trailing bytes":         reframe(featMagic, append(append([]byte(nil), sp...), 0, 0, 0, 0)),
		"huge row count":         fp(sp, 20, math.MaxUint32),
		"huge value count":       fp(sp, 28, math.MaxUint32),
		"counts traded":          patch(featMagic, payload(fp(sp, 24, 5)), 28, 2),
		"row offsets decreasing": fp(sp, rows+4, 1|sparseRow),
		"row offset past values": fp(sp, rows+4, 9|sparseRow),
		"index outside dim":      fp(sp, idx+4, 8),
		"indices not increasing": fp(sp, idx, 5),
		"negative index":         fp(sp, idx, math.MaxUint32),
		"dimension too small":    fp(sp, 16, 5),
		"dimension over int32":   fp(sp, 16, math.MaxUint32),
		"label is NaN":           fp(sp, labels+4, 0x7ff80000),
		"label is +Inf":          fp(sp, labels+4, 0x7ff00000),
		"sparse bit, no indices": fp(dp, featHeader, 2|sparseRow),
		"dim without sparse row": fp(dp, 16, 4),
	} {
		if _, err := decodeFeatureChunk(b); !errors.Is(err, errCorruptChunk) {
			t.Errorf("feature chunk, %s: err = %v", name, err)
		}
	}
	rpatch := func(pl []byte, off int, v uint32) []byte { return patch(rawMagic, pl, off, v) }
	for name, b := range map[string][]byte{
		"empty":                 nil,
		"feature magic":         append([]byte(featMagic), raw[8:]...),
		"bit flip, stale crc":   append(append([]byte(nil), raw[:len(raw)-1]...), raw[len(raw)-1]^1),
		"bytes after the frame": append(append([]byte(nil), raw...), 'x'),
		"version is not the id": frameChunk(rawMagic, 0, rp),
		"truncated, reframed":   reframe(rawMagic, rp[:len(rp)-1]),
		"trailing bytes":        reframe(rawMagic, append(append([]byte(nil), rp...), 'x')),
		"huge record count":     rpatch(rp, 8, math.MaxUint32),
		"offsets decreasing":    patch(rawMagic, payload(rpatch(rp, rawHeader, 4)), rawHeader+4, 3),
		"offset past the end":   rpatch(rp, rawHeader+4, 6),
		"header only":           reframe(rawMagic, rp[:4]),
	} {
		if _, err := decodeRawChunk(b); !errors.Is(err, errCorruptChunk) {
			t.Errorf("raw chunk, %s: err = %v", name, err)
		}
	}
}

// A chunk file that rots on disk is a fetch error the tick fails on — not a
// panic, and not mistaken for an evicted chunk.
func TestDiskBackendSurfacesCorruptFiles(t *testing.T) {
	dir := t.TempDir()
	disk, err := NewDiskBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore(disk)
	id, err := s.AppendRaw([][]byte{[]byte("rec")})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutFeatures(id, mkInstances(3)); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{disk.rawPath(id), disk.featPath(id)} {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		b[len(b)-2] ^= 0x40
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok, err := s.Features(id); ok || !errors.Is(err, errCorruptChunk) || errors.Is(err, errNotFound) {
		t.Fatalf("corrupt feature file: ok=%v err=%v", ok, err)
	}
	if _, err := s.Raw(id); !errors.Is(err, errCorruptChunk) {
		t.Fatalf("corrupt raw file: err=%v", err)
	}
	// A previous life's gob files are never looked at.
	if err := os.WriteFile(filepath.Join(dir, "feat-000000000000.gob"), []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.PutFeatures(id, mkInstances(3)); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Features(id); !ok || err != nil {
		t.Fatalf("rewritten chunk: ok=%v err=%v", ok, err)
	}
}

// framed returns b as it came and, when it is long enough to hold a frame,
// with magic, length, version and CRC rebuilt around the bytes between header
// and trailer — a fuzzer does not guess a CRC or match a version to an id,
// and the payload checks behind them are the ones that slice.
func framed(b []byte, magic string) [][]byte {
	if len(b) < frameOverhead {
		return [][]byte{b}
	}
	return [][]byte{b, reframe(magic, b[payloadStart:len(b)-4])}
}

// The decoders read bytes they did not write: any input is an error or a
// chunk that encodes back to exactly those bytes.
func FuzzDecodeFeatureChunk(f *testing.F) {
	features, raws := validEncodings(f)
	for _, b := range append(features, raws[0]) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		for _, b := range framed(in, featMagic) {
			fc, err := decodeFeatureChunk(b)
			if err != nil {
				if !errors.Is(err, errCorruptChunk) {
					t.Fatalf("decode error does not wrap errCorruptChunk: %v", err)
				}
				continue
			}
			again, err := encodeFeatureChunk(fc)
			if err != nil || !bytes.Equal(again, b) {
				t.Fatalf("accepted %x, re-encoded to %x (err %v)", b, again, err)
			}
		}
	})
}

func FuzzDecodeRawChunk(f *testing.F) {
	features, raws := validEncodings(f)
	for _, b := range append(raws, features[0]) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		for _, b := range framed(in, rawMagic) {
			rc, err := decodeRawChunk(b)
			if err != nil {
				if !errors.Is(err, errCorruptChunk) {
					t.Fatalf("decode error does not wrap errCorruptChunk: %v", err)
				}
				continue
			}
			again, err := encodeRawChunk(rc)
			if err != nil || !bytes.Equal(again, b) {
				t.Fatalf("accepted %x, re-encoded to %x (err %v)", b, again, err)
			}
		}
	})
}
