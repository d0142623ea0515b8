package data

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// errNotFound is returned by backends when a requested chunk is absent.
var errNotFound = fmt.Errorf("data: chunk not found")

// Backend is the physical storage layer for chunks. The Store layers
// eviction policy and materialization accounting on top of it.
//
// Implementations must be safe for concurrent use.
type Backend interface {
	// PutRaw persists a raw chunk.
	PutRaw(rc RawChunk) error
	// GetRaw fetches a raw chunk; errNotFound if absent.
	GetRaw(id Timestamp) (RawChunk, error)
	// PutFeatures persists a feature chunk.
	PutFeatures(fc FeatureChunk) error
	// GetFeatures fetches a feature chunk; errNotFound if absent.
	GetFeatures(id Timestamp) (FeatureChunk, error)
	// DeleteFeatures removes a feature chunk's content. Deleting an absent
	// chunk is not an error.
	DeleteFeatures(id Timestamp) error
	// DeleteRaw removes a raw chunk (the raw-capacity bound drops old
	// history). Deleting an absent chunk is not an error.
	DeleteRaw(id Timestamp) error
	// Close releases backend resources.
	Close() error
}

// MemoryBackend stores chunks in process memory, packed (chunk.go): a Put
// copies the chunk into exact-size flat arrays, so the history the store
// keeps for the life of the deployment is a few pointers per chunk to the
// collector and pins neither the request body nor the transform's backing
// arrays; a Get rebuilds the row headers as views over those arrays. It is
// the fast tier: a materialization rate of 1.0 with a memory backend
// reproduces the paper's fully-cached configuration.
type MemoryBackend struct {
	mu       sync.RWMutex
	raw      map[Timestamp][]byte          //cdml:guardedby mu — raw payloads
	features map[Timestamp]*packedFeatures //cdml:guardedby mu
}

// NewMemoryBackend returns an empty in-memory backend.
func NewMemoryBackend() *MemoryBackend {
	return &MemoryBackend{
		raw:      make(map[Timestamp][]byte),
		features: make(map[Timestamp]*packedFeatures),
	}
}

// PutRaw implements Backend. The records are copied: the caller may reuse
// them.
func (m *MemoryBackend) PutRaw(rc RawChunk) error {
	b, err := appendRawPayload(make([]byte, 0, rawPayloadSize(rc.Records)), rc)
	if err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.raw[rc.ID] = b
	return nil
}

// GetRaw implements Backend. The records are read-only views over the
// stored bytes, each clipped to its own capacity.
func (m *MemoryBackend) GetRaw(id Timestamp) (RawChunk, error) {
	m.mu.RLock()
	b, ok := m.raw[id]
	m.mu.RUnlock()
	if !ok {
		return RawChunk{}, fmt.Errorf("raw %d: %w", id, errNotFound)
	}
	return viewRaw(b)
}

// PutFeatures implements Backend. The vectors are copied: the caller may
// reuse them.
func (m *MemoryBackend) PutFeatures(fc FeatureChunk) error {
	p, err := packFeatures(fc)
	if err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.features[fc.ID] = p
	return nil
}

// GetFeatures implements Backend. The vectors are read-only views over the
// stored arrays, each clipped to its own capacity.
func (m *MemoryBackend) GetFeatures(id Timestamp) (FeatureChunk, error) {
	m.mu.RLock()
	p, ok := m.features[id]
	m.mu.RUnlock()
	if !ok {
		return FeatureChunk{}, fmt.Errorf("features %d: %w", id, errNotFound)
	}
	return p.view(), nil
}

// DeleteFeatures implements Backend.
func (m *MemoryBackend) DeleteFeatures(id Timestamp) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.features, id)
	return nil
}

// DeleteRaw implements Backend.
func (m *MemoryBackend) DeleteRaw(id Timestamp) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.raw, id)
	return nil
}

// Close implements Backend.
func (m *MemoryBackend) Close() error { return nil }

// DiskBackend stores chunks as files under a directory, one file per chunk,
// in the flat format of encodeRawChunk and encodeFeatureChunk. It is the HDFS
// substitute: fetching from it pays real decoding and file IO, giving
// dynamic materialization a measurable price (paper §5.4 observes the larger
// IO overhead on the cluster). A file that fails its checks surfaces as a
// fetch error wrapping errCorruptChunk.
type DiskBackend struct {
	dir string
	mu  sync.Mutex // serializes file creation; reads are lock-free
}

// NewDiskBackend creates (if needed) and uses dir for chunk files.
func NewDiskBackend(dir string) (*DiskBackend, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("data: creating disk backend dir: %w", err)
	}
	return &DiskBackend{dir: dir}, nil
}

func (d *DiskBackend) rawPath(id Timestamp) string {
	return filepath.Join(d.dir, fmt.Sprintf("raw-%012d.chunk", id))
}

func (d *DiskBackend) featPath(id Timestamp) string {
	return filepath.Join(d.dir, fmt.Sprintf("feat-%012d.chunk", id))
}

// PutRaw implements Backend.
func (d *DiskBackend) PutRaw(rc RawChunk) error {
	b, err := encodeRawChunk(rc)
	if err != nil {
		return err
	}
	return atomicWrite(d.rawPath(rc.ID), b)
}

// GetRaw implements Backend.
func (d *DiskBackend) GetRaw(id Timestamp) (RawChunk, error) {
	b, err := os.ReadFile(d.rawPath(id))
	if os.IsNotExist(err) {
		return RawChunk{}, fmt.Errorf("raw %d: %w", id, errNotFound)
	}
	if err != nil {
		return RawChunk{}, fmt.Errorf("data: reading raw chunk %d: %w", id, err)
	}
	rc, err := decodeRawChunk(b)
	if err != nil {
		return RawChunk{}, fmt.Errorf("data: reading raw chunk %d: %w", id, err)
	}
	return rc, nil
}

// PutFeatures implements Backend.
func (d *DiskBackend) PutFeatures(fc FeatureChunk) error {
	b, err := encodeFeatureChunk(fc)
	if err != nil {
		return err
	}
	return atomicWrite(d.featPath(fc.ID), b)
}

// GetFeatures implements Backend.
func (d *DiskBackend) GetFeatures(id Timestamp) (FeatureChunk, error) {
	b, err := os.ReadFile(d.featPath(id))
	if os.IsNotExist(err) {
		return FeatureChunk{}, fmt.Errorf("features %d: %w", id, errNotFound)
	}
	if err != nil {
		return FeatureChunk{}, fmt.Errorf("data: reading feature chunk %d: %w", id, err)
	}
	fc, err := decodeFeatureChunk(b)
	if err != nil {
		return FeatureChunk{}, fmt.Errorf("data: reading feature chunk %d: %w", id, err)
	}
	return fc, nil
}

// DeleteFeatures implements Backend.
func (d *DiskBackend) DeleteFeatures(id Timestamp) error {
	err := os.Remove(d.featPath(id))
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("data: deleting feature chunk %d: %w", id, err)
	}
	return nil
}

// DeleteRaw implements Backend.
func (d *DiskBackend) DeleteRaw(id Timestamp) error {
	err := os.Remove(d.rawPath(id))
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("data: deleting raw chunk %d: %w", id, err)
	}
	return nil
}

// Close implements Backend. Chunk files are left on disk; callers own the
// directory lifecycle.
func (d *DiskBackend) Close() error { return nil }

// atomicWrite writes b to path via a temp file + rename so readers never see
// a partial chunk.
func atomicWrite(path string, b []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return fmt.Errorf("data: writing %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("data: renaming %s: %w", tmp, err)
	}
	return nil
}
