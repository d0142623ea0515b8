// Fixture for the snapfreeze analyzer: //cdml:frozen roots an immutability
// closure over pointer/slice/map reachability; writes into that memory are
// flagged outside constructors and Clone/Snapshot methods; //cdml:mutable
// prunes internally-synchronized types from the closure.
package fixture

// snapshot is the frozen root — published via an atomic pointer, read
// without locks, never mutated after construction.
//
//cdml:frozen
type snapshot struct {
	version int
	model   *model
	stats   result
	tags    []string
}

// model is reached through a pointer field: frozen by closure.
type model struct {
	weights []float64
	clock   *clock
}

// clock is reachable from the snapshot but internally synchronized; it is
// deliberately outside the frozen set.
//
//cdml:mutable
type clock struct {
	extra map[string]int
}

// result is a value field of snapshot: its memory belongs to the snapshot
// (writes through a frozen parent are caught at the parent crossing), but
// the closure still descends into it to freeze series.
type result struct {
	final float64
	curve *series
}

type series struct {
	xs []float64
}

// NewSnapshot is a constructor: the object is unpublished, stores are the
// point of the function.
func NewSnapshot(version int) *snapshot {
	s := &snapshot{version: version}
	s.model = &model{weights: make([]float64, 4)}
	s.stats.final = 0
	return s
}

// Clone is the copy-on-write vocabulary: it builds a fresh object.
func (s *snapshot) Clone() *snapshot {
	c := &snapshot{}
	c.version = s.version + 1
	return c
}

// mutateVersion writes a scalar field through a frozen pointer.
func mutateVersion(s *snapshot) {
	s.version = 1 // want `write to s\.version reaches //cdml:frozen memory in mutateVersion`
}

// mutateValueField writes through a value field of a frozen object: the
// owning crossing is the *snapshot pointer, not result.
func mutateValueField(s *snapshot) {
	s.stats.final = 2.0 // want `write to s\.stats\.final reaches //cdml:frozen memory in mutateValueField`
}

// mutateDeep writes slice backing reached via value field → pointer field:
// series joined the frozen set by closure.
func mutateDeep(s *snapshot) {
	s.stats.curve.xs[0] = 1 // want `write to s\.stats\.curve\.xs\[\.\.\.\] reaches //cdml:frozen memory in mutateDeep`
}

// mutateTransitive proves the closure works without mentioning the root: a
// bare *model is frozen because snapshots reach models by pointer.
func mutateTransitive(m *model) {
	m.weights[0]++ // want `write to m\.weights\[\.\.\.\] reaches //cdml:frozen memory in mutateTransitive`
}

// escape leaks a writable pointer into frozen memory.
func escape(s *snapshot) *result {
	return &s.stats // want `address of s\.stats reaches //cdml:frozen memory in escape`
}

// copyInto writes frozen slice memory with the copy builtin.
func copyInto(m *model, src []float64) {
	copy(m.weights, src) // want `copy into m\.weights reaches //cdml:frozen memory in copyInto`
}

// clearFrozen zeroes frozen memory with the clear builtin, slice and map.
func clearFrozen(s *snapshot) {
	clear(s.tags)              // want `clear into s\.tags reaches //cdml:frozen memory in clearFrozen`
	clear(s.model.clock.extra) // the //cdml:mutable clock owns its map
	clear((s.stats.curve.xs))  // want `clear into s\.stats\.curve\.xs reaches //cdml:frozen memory in clearFrozen`
}

// copyOut reads frozen memory into a local buffer — never flagged.
func copyOut(s *snapshot, dst []float64) int {
	return copy(dst, s.model.weights)
}

// copyAllowed is a deliberate copy into a snapshot before it is published.
func copyAllowed(m *model, src []float64) {
	copy(m.weights, src) //lint:allow snapfreeze: the buffer is unpublished until the caller's Store
}

// localValue writes fields of a local value: its memory is the stack frame,
// not a published snapshot — never flagged.
func localValue() snapshot {
	var s snapshot
	s.version = 7
	return s
}

// rebind replaces which object a local points at; the frozen object itself
// is untouched — never flagged.
func rebind(m *model) *model {
	m = &model{}
	return m
}

// mutableStats writes through the //cdml:mutable pruning point: the clock
// owns its memory and synchronizes internally.
func mutableStats(s *snapshot) {
	s.model.clock.extra["ticks"] = 1
}

// suppressed documents a deliberate pre-publication exception.
func suppressed(s *snapshot) {
	s.version = 9 //lint:allow snapfreeze: test-only helper runs before the snapshot is published
}
