package data_test

import (
	"runtime"
	"runtime/metrics"
	"testing"

	"cdml/internal/data"
	"cdml/internal/dataset"
	"cdml/internal/pipeline"
)

// scannableHeap is the heap the collector has to read on every cycle: the
// bytes, up to an object's last pointer, of every live object that holds one.
func scannableHeap() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/scan/heap:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// The store keeps every chunk for the life of the deployment, so what a
// stored chunk adds to the scannable heap is paid again at every GC cycle,
// for ever, by whoever allocates — the predict path. Packed, a chunk adds a
// small constant whatever its size; as [][]byte + []Instance + []Sparse it
// added ~110 bytes per row (9 KB for an 80-row chunk).
func TestStoreScannableHeapIsPerChunkNotPerRow(t *testing.T) {
	const (
		chunks   = 1500
		perChunk = 256 // bytes
	)
	type workload struct {
		name  string
		pipe  func() *pipeline.Pipeline
		chunk func(rows int) func(i int) [][]byte
	}
	for _, w := range []workload{
		{"url", func() *pipeline.Pipeline { return dataset.NewURLPipeline(1 << 15) }, func(rows int) func(int) [][]byte {
			cfg := dataset.DefaultURLConfig()
			cfg.Days, cfg.ChunksPerDay, cfg.RowsPerChunk, cfg.Vocab = 2*chunks, 1, rows, 5000
			return dataset.NewURL(cfg).Chunk
		}},
		{"taxi", dataset.NewTaxiPipeline, func(rows int) func(int) [][]byte {
			cfg := dataset.DefaultTaxiConfig()
			cfg.Chunks, cfg.RowsPerChunk = 2*chunks, rows
			return dataset.NewTaxi(cfg).Chunk
		}},
	} {
		var grew [2]int64
		for k, rows := range []int{20, 80} {
			pipe, chunk := w.pipe(), w.chunk(rows)
			store := data.NewStore(data.NewMemoryBackend())
			fill := func(from, to int) {
				for i := from; i < to; i++ {
					records := chunk(i)
					ins, err := pipe.ProcessOnline(records)
					if err != nil {
						t.Fatal(err)
					}
					id, err := store.AppendRaw(records)
					if err != nil {
						t.Fatal(err)
					}
					if err := store.PutFeatures(id, ins); err != nil {
						t.Fatal(err)
					}
				}
			}
			fill(0, chunks)
			before := scannableHeap()
			fill(chunks, 2*chunks)
			grew[k] = int64(scannableHeap()-before) / chunks
			raw, features := store.Bytes()
			t.Logf("%s, %d rows: +%d scannable bytes per stored chunk (%d bytes at rest)", w.name, rows, grew[k], (raw+features)/(2*chunks))
			if grew[k] > perChunk {
				t.Errorf("%s, %d rows: the scannable heap grew by %d bytes per stored chunk, want at most %d", w.name, rows, grew[k], perChunk)
			}
			runtime.KeepAlive(store)
		}
		if d := grew[1] - grew[0]; d > 32 || d < -32 {
			t.Errorf("%s: %d scannable bytes per 20-row chunk, %d per 80-row chunk: the cost depends on the rows", w.name, grew[0], grew[1])
		}
	}
}
