// Fixture for the guardedby analyzer: //cdml:guardedby-annotated fields may
// only be touched by functions that acquire the named mutex — Lock for
// writes, Lock or RLock for reads. Constructors, //cdml:locked functions,
// and the *Locked naming convention are exempt.
package fixture

import "sync"

type counter struct {
	mu sync.Mutex
	// n is the running total.
	//cdml:guardedby mu
	n int
	free int // unannotated: never flagged
}

// NewCounter is a constructor: the object is unpublished, no lock needed.
func NewCounter(start int) *counter {
	c := &counter{}
	c.n = start
	return c
}

// inc acquires the guard before writing — the canonical pattern, with the
// unlock deferred: the analyzer keys on the Lock call, so defer mu.Unlock()
// is understood.
func (c *counter) inc() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
}

// get locks around the read.
func (c *counter) get() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// racyWrite never acquires mu.
func (c *counter) racyWrite() {
	c.n = 0 // want `write to n \(guarded by mu\) without mu\.Lock\(\)`
}

// racyRead never acquires mu.
func (c *counter) racyRead() int {
	return c.n + c.free // want `read of n \(guarded by mu\) without mu\.Lock\(\)`
}

// addLocked follows the naming convention: the caller holds mu.
func (c *counter) addLocked(delta int) {
	c.n += delta
}

// reset documents via //cdml:locked that its caller provides the critical
// section.
//
//cdml:locked mu
func (c *counter) reset() {
	c.n = 0
}

// snapshotDuringInit runs before the counter is shared; the deliberate
// exception carries a reason.
func (c *counter) snapshotDuringInit() int {
	return c.n //lint:allow guardedby: called before the counter is shared with any goroutine
}

type table struct {
	mu sync.RWMutex
	//cdml:guardedby mu
	entries map[string]int
}

// lookup takes the read lock — sufficient for a read.
func (t *table) lookup(k string) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.entries[k]
}

// insertSharedOnly writes under the read lock — flagged: writes need the
// exclusive lock.
func (t *table) insertSharedOnly(k string, v int) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	t.entries[k] = v // want `write to entries \(guarded by mu\) without mu\.Lock\(\)`
}

// insert takes the exclusive lock.
func (t *table) insert(k string, v int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.entries[k] = v
}

// escape takes the address of a guarded field without the exclusive lock.
func (t *table) escape() *map[string]int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return &t.entries // want `write to entries \(guarded by mu\) without mu\.Lock\(\)`
}
