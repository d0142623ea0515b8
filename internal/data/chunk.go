package data

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"cdml/internal/linalg"
)

// Timestamp identifies a chunk. It is assigned monotonically at chunk
// creation, so it is simultaneously the chunk's unique identifier and its
// recency indicator (paper §3, stage 1).
type Timestamp int64

// Instance is one preprocessed training example: a feature vector and its
// label.
type Instance struct {
	X linalg.Vector
	Y float64
}

// RawChunk is a discretized slice of the incoming raw training stream. Raw
// chunks are always retained; feature chunks can be re-materialized from
// them.
type RawChunk struct {
	ID      Timestamp
	Records [][]byte
}

// FeatureChunk holds the preprocessed features of one raw chunk together
// with a reference to the originating raw chunk.
type FeatureChunk struct {
	ID        Timestamp
	RawID     Timestamp
	Instances []Instance
}

// Chunks at rest are packed: a raw chunk is one byte buffer, a feature chunk
// four flat arrays, whatever the number of rows. The store keeps every chunk
// for the life of the deployment, so what it holds must cost the collector
// O(1) pointers per chunk and none per row; RawChunk and FeatureChunk, with
// a slice header or an interface per row, are the form chunks travel in.
// The same arrays, little-endian behind a magic and a CRC, are the disk
// format (DESIGN.md §5m).
//
//	raw payload      id i64 | n u32 | record end offsets n×u32 | record bytes
//	feature payload  id i64 | rawID i64 | dim u32 | n u32 | nIdx u32 | nVal u32 |
//	                 rows n×u32 | idx nIdx×i32 | labels n×f64 | val nVal×f64
//	file             magic [8] | IEEE CRC-32 of the payload u32 | payload
const (
	rawMagic   = "CDMLRAW1"
	featMagic  = "CDMLFEA1"
	frameLen   = 12
	rawHeader  = 12
	featHeader = 32
	// sparseRow marks a row of packedFeatures.rows as *linalg.Sparse; the
	// other 31 bits are the row's end offset into val.
	sparseRow = 1 << 31
)

var le = binary.LittleEndian

// errCorruptChunk is matched by errors.Is for every decode failure: bytes
// that are not a chunk encoding, or that were one and rotted.
var errCorruptChunk = errors.New("data: corrupt chunk")

func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{errCorruptChunk}, args...)...)
}

// packedFeatures is a feature chunk at rest. A dense row owns
// val[start:end]; a sparse row owns the same span of val and the next
// end-start entries of idx, so one offset per row locates both.
type packedFeatures struct {
	rows   []uint32 // per row: end offset into val, | sparseRow
	idx    []int32
	val    []float64
	labels []float64
	id     Timestamp
	rawID  Timestamp
	dim    int // dimension of the sparse rows; 0 when there are none
}

// packFeatures copies fc into exact-size arrays of its own: nothing of the
// caller's backing (a SparseBatch, a request body) is retained. It rejects
// what has no packed form: a vector kind other than Dense and *Sparse, and
// sparse rows of different dimensions.
func packFeatures(fc FeatureChunk) (*packedFeatures, error) {
	nVal, nIdx, dim := 0, 0, -1
	for i, ins := range fc.Instances {
		switch x := ins.X.(type) {
		case linalg.Dense:
			nVal += len(x)
		case *linalg.Sparse:
			if x == nil || len(x.Idx) != len(x.Val) || x.N < 0 || x.N > math.MaxInt32 {
				return nil, fmt.Errorf("data: feature chunk %d row %d: malformed sparse vector", fc.ID, i)
			}
			if dim < 0 {
				dim = x.N
			}
			if x.N != dim {
				return nil, fmt.Errorf("data: feature chunk %d row %d: sparse dimension %d in a chunk of dimension %d", fc.ID, i, x.N, dim)
			}
			nVal += len(x.Val)
			nIdx += len(x.Idx)
		default:
			return nil, fmt.Errorf("data: feature chunk %d row %d: unsupported vector type %T", fc.ID, i, ins.X)
		}
	}
	if nVal >= sparseRow || len(fc.Instances) >= sparseRow {
		return nil, fmt.Errorf("data: feature chunk %d: %d values in %d rows do not fit the packed form", fc.ID, nVal, len(fc.Instances))
	}
	p := &packedFeatures{
		rows:   make([]uint32, len(fc.Instances)),
		idx:    make([]int32, 0, nIdx),
		val:    make([]float64, 0, nVal),
		labels: make([]float64, len(fc.Instances)),
		id:     fc.ID,
		rawID:  fc.RawID,
		dim:    max(dim, 0),
	}
	for i, ins := range fc.Instances {
		p.labels[i] = ins.Y
		switch x := ins.X.(type) {
		case linalg.Dense:
			p.val = append(p.val, x...)
			p.rows[i] = uint32(len(p.val))
		case *linalg.Sparse:
			p.idx = append(p.idx, x.Idx...)
			p.val = append(p.val, x.Val...)
			p.rows[i] = uint32(len(p.val)) | sparseRow
		}
	}
	return p, nil
}

// view rebuilds the travelling form over the packed arrays without copying a
// number: it allocates the []Instance, one []linalg.Sparse of headers for
// the sparse rows and an interface box per dense row. Every row is clipped
// to its own capacity, so an append on one reallocates instead of writing
// its neighbour; the values themselves are the store's and are read-only.
func (p *packedFeatures) view() FeatureChunk {
	nSparse := 0
	for _, r := range p.rows {
		nSparse += int(r >> 31)
	}
	out := make([]Instance, len(p.rows))
	sparse := make([]linalg.Sparse, nSparse)
	v, k, s := 0, 0, 0
	for i, r := range p.rows {
		end := int(r &^ sparseRow)
		if r&sparseRow == 0 {
			out[i] = Instance{X: linalg.Dense(p.val[v:end:end]), Y: p.labels[i]}
		} else {
			kEnd := k + end - v
			sparse[s] = linalg.Sparse{N: p.dim, Idx: p.idx[k:kEnd:kEnd], Val: p.val[v:end:end]}
			out[i] = Instance{X: &sparse[s], Y: p.labels[i]}
			k, s = kEnd, s+1
		}
		v = end
	}
	return FeatureChunk{ID: p.id, RawID: p.rawID, Instances: out}
}

// featPayloadSize is the length of the payload of a feature chunk of n rows
// holding nIdx sparse indices and nVal values: an offset and a label a row.
func featPayloadSize[T int | int64 | uint64](n, nIdx, nVal T) T {
	return featHeader + 12*n + 4*nIdx + 8*nVal
}

// size is the length of the chunk's payload: the bytes it occupies at rest,
// in memory (slice headers aside) and on disk (frame aside).
func (p *packedFeatures) size() int {
	return featPayloadSize(len(p.rows), len(p.idx), len(p.val))
}

func (p *packedFeatures) appendPayload(b []byte) []byte {
	b = le.AppendUint64(b, uint64(p.id))
	b = le.AppendUint64(b, uint64(p.rawID))
	b = le.AppendUint32(b, uint32(p.dim))
	b = le.AppendUint32(b, uint32(len(p.rows)))
	b = le.AppendUint32(b, uint32(len(p.idx)))
	b = le.AppendUint32(b, uint32(len(p.val)))
	for _, r := range p.rows {
		b = le.AppendUint32(b, r)
	}
	for _, i := range p.idx {
		b = le.AppendUint32(b, uint32(i))
	}
	for _, y := range p.labels {
		b = le.AppendUint64(b, math.Float64bits(y))
	}
	for _, v := range p.val {
		b = le.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// unpackFeatures validates a feature payload and copies it into typed
// arrays. It accepts exactly the payloads appendPayload produces — declared
// counts equal to the bytes present (checked before anything is allocated
// from them), row offsets non-decreasing and ending at nVal, sparse indices
// in [0, dim) and strictly increasing within a row, finite labels, dim 0
// without sparse rows — so decoding then encoding gives the same bytes back.
func unpackFeatures(b []byte) (*packedFeatures, error) {
	if len(b) < featHeader {
		return nil, corrupt("feature payload of %d bytes", len(b))
	}
	dim, n, nIdx, nVal := le.Uint32(b[16:]), le.Uint32(b[20:]), le.Uint32(b[24:]), le.Uint32(b[28:])
	if want := featPayloadSize(uint64(n), uint64(nIdx), uint64(nVal)); want != uint64(len(b)) {
		return nil, corrupt("feature payload of %d bytes declares %d rows, %d indices, %d values (%d bytes)", len(b), n, nIdx, nVal, want)
	}
	if dim > math.MaxInt32 || nVal >= sparseRow {
		return nil, corrupt("feature payload declares dimension %d, %d values", dim, nVal)
	}
	p := &packedFeatures{
		rows:   make([]uint32, n),
		idx:    make([]int32, nIdx),
		val:    make([]float64, nVal),
		labels: make([]float64, n),
		id:     Timestamp(le.Uint64(b)),
		rawID:  Timestamp(le.Uint64(b[8:])),
		dim:    int(dim),
	}
	b = b[featHeader:]
	for i := range p.rows {
		p.rows[i] = le.Uint32(b[4*i:])
	}
	b = b[4*len(p.rows):]
	for i := range p.idx {
		p.idx[i] = int32(le.Uint32(b[4*i:]))
	}
	b = b[4*len(p.idx):]
	for i := range p.labels {
		p.labels[i] = math.Float64frombits(le.Uint64(b[8*i:]))
		if !finite(p.labels[i]) {
			return nil, corrupt("feature chunk %d row %d: non-finite label", p.id, i)
		}
	}
	b = b[8*len(p.labels):]
	for i := range p.val {
		p.val[i] = math.Float64frombits(le.Uint64(b[8*i:]))
	}
	v, k, anySparse := 0, 0, false
	for i, r := range p.rows {
		end := int(r &^ sparseRow)
		if end < v || end > len(p.val) {
			return nil, corrupt("feature chunk %d row %d: end offset %d outside [%d, %d]", p.id, i, end, v, len(p.val))
		}
		if r&sparseRow != 0 {
			anySparse = true
			kEnd := k + end - v
			if kEnd > len(p.idx) {
				return nil, corrupt("feature chunk %d row %d: sparse rows hold more than the %d indices present", p.id, i, len(p.idx))
			}
			for j := k; j < kEnd; j++ {
				if p.idx[j] < 0 || int(p.idx[j]) >= p.dim || (j > k && p.idx[j] <= p.idx[j-1]) {
					return nil, corrupt("feature chunk %d row %d: index %d out of order or outside [0, %d)", p.id, i, p.idx[j], p.dim)
				}
			}
			k = kEnd
		}
		v = end
	}
	if v != len(p.val) || k != len(p.idx) || (!anySparse && p.dim != 0) {
		return nil, corrupt("feature chunk %d: rows cover %d of %d values and %d of %d indices, dimension %d", p.id, v, len(p.val), k, len(p.idx), p.dim)
	}
	return p, nil
}

// rawPayloadSize is the length of the payload appendRawPayload writes for
// records: what a raw chunk occupies at rest.
func rawPayloadSize(records [][]byte) int {
	size := rawHeader + 4*len(records)
	for _, r := range records {
		size += len(r)
	}
	return size
}

// appendRawPayload copies rc's records into b behind their end offsets:
// nothing of the caller's backing (the request body) is retained.
func appendRawPayload(b []byte, rc RawChunk) ([]byte, error) {
	b = le.AppendUint64(b, uint64(rc.ID))
	b = le.AppendUint32(b, uint32(len(rc.Records)))
	end := 0
	for _, r := range rc.Records {
		end += len(r)
		b = le.AppendUint32(b, uint32(end))
	}
	if end > math.MaxUint32 || len(rc.Records) > math.MaxUint32 {
		return nil, fmt.Errorf("data: raw chunk %d: %d bytes in %d records do not fit the packed form", rc.ID, end, len(rc.Records))
	}
	for _, r := range rc.Records {
		b = append(b, r...)
	}
	return b, nil
}

// viewRaw validates a raw payload — the declared record count against the
// bytes present before anything is sized by it, end offsets non-decreasing
// and ending at the last byte — and returns the records as capacity-clipped
// views over it: one [][]byte is allocated and no record byte is copied.
func viewRaw(b []byte) (RawChunk, error) {
	if len(b) < rawHeader {
		return RawChunk{}, corrupt("raw payload of %d bytes", len(b))
	}
	id, n := Timestamp(le.Uint64(b)), le.Uint32(b[8:])
	if rawHeader+4*uint64(n) > uint64(len(b)) {
		return RawChunk{}, corrupt("raw chunk %d: %d records declared in %d bytes", id, n, len(b))
	}
	ends, body := b[rawHeader:rawHeader+4*int(n)], b[rawHeader+4*int(n):]
	records := make([][]byte, n)
	start := 0
	for i := range records {
		end := int(le.Uint32(ends[4*i:]))
		if end < start || end > len(body) {
			return RawChunk{}, corrupt("raw chunk %d record %d: end offset %d outside [%d, %d]", id, i, end, start, len(body))
		}
		records[i] = body[start:end:end]
		start = end
	}
	if start != len(body) {
		return RawChunk{}, corrupt("raw chunk %d: records cover %d of %d bytes", id, start, len(body))
	}
	return RawChunk{ID: id, Records: records}, nil
}

// newFrame starts a file of the given kind with room for size payload bytes;
// seal finishes it once the payload is appended.
func newFrame(magic string, size int) []byte {
	b := make([]byte, frameLen, frameLen+size)
	copy(b, magic)
	return b
}

func seal(b []byte) []byte {
	le.PutUint32(b[8:], crc32.ChecksumIEEE(b[frameLen:]))
	return b
}

// unseal checks a frame's magic and CRC and returns its payload.
func unseal(b []byte, magic string) ([]byte, error) {
	if len(b) < frameLen || string(b[:8]) != magic {
		return nil, corrupt("%d bytes do not start with %s", len(b), magic)
	}
	if got, want := crc32.ChecksumIEEE(b[frameLen:]), le.Uint32(b[8:]); got != want {
		return nil, corrupt("%s payload checksum %08x, header says %08x", magic, got, want)
	}
	return b[frameLen:], nil
}

// encodeFeatureChunk serializes a feature chunk in the flat format the disk
// backend stores. A non-finite label is refused here, when the chunk is
// written, rather than by decodeFeatureChunk when it is needed.
func encodeFeatureChunk(fc FeatureChunk) ([]byte, error) {
	p, err := packFeatures(fc)
	if err != nil {
		return nil, err
	}
	for i, y := range p.labels {
		if !finite(y) {
			return nil, fmt.Errorf("data: encoding feature chunk %d row %d: non-finite label", fc.ID, i)
		}
	}
	return seal(p.appendPayload(newFrame(featMagic, p.size()))), nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// decodeFeatureChunk deserializes a feature chunk produced by
// encodeFeatureChunk. Any other input is an error wrapping errCorruptChunk,
// never a panic.
func decodeFeatureChunk(b []byte) (FeatureChunk, error) {
	payload, err := unseal(b, featMagic)
	if err != nil {
		return FeatureChunk{}, err
	}
	p, err := unpackFeatures(payload)
	if err != nil {
		return FeatureChunk{}, err
	}
	return p.view(), nil
}

// encodeRawChunk serializes a raw chunk in the flat format the disk backend
// stores.
func encodeRawChunk(rc RawChunk) ([]byte, error) {
	b, err := appendRawPayload(newFrame(rawMagic, rawPayloadSize(rc.Records)), rc)
	if err != nil {
		return nil, err
	}
	return seal(b), nil
}

// decodeRawChunk deserializes a raw chunk produced by encodeRawChunk; the
// records are views over b. Any other input is an error wrapping
// errCorruptChunk, never a panic.
func decodeRawChunk(b []byte) (RawChunk, error) {
	payload, err := unseal(b, rawMagic)
	if err != nil {
		return RawChunk{}, err
	}
	return viewRaw(payload)
}

// featureBytes is the exact size of a feature chunk at rest — its flat
// payload: 8 bytes per stored value, 4 per sparse index, 12 per row (label
// and offset) and a fixed header. This is the quantity the
// storage-requirement analysis of paper §3.2.1 bounds: with sparse
// encodings every supported component keeps the footprint linear in the
// input size.
func featureBytes(instances []Instance) int64 {
	var nIdx, nVal int64
	for _, ins := range instances {
		switch x := ins.X.(type) {
		case *linalg.Sparse:
			nIdx += int64(len(x.Idx))
			nVal += int64(len(x.Val))
		case linalg.Dense:
			nVal += int64(len(x))
		}
	}
	return featPayloadSize(int64(len(instances)), nIdx, nVal)
}
