package seglog

import "sync"

// Incremental snapshot capture, the KV's. A store used to clone its
// full index under an exclusive lock on every snapshot, so the
// stop-the-world pause scaled with page/key count no matter how
// little had changed since the last snapshot. A Tracker turns that into
// a diff: mutators mark the keys they touch, and a capture resolves
// only the marked keys against current state, merging them over the
// entries of the last published snapshot. The first capture (and any
// store that wants a safety net) still runs the full scan as the seed.
//
// The Tracker also owns the auto-snapshot countdown. The stores used to
// zero their event counters inside capture — before the snapshot was
// published — so a failed publish (ENOSPC, transient IO error) left the
// tail uncovered for another full SnapshotEvery events with no retry.
// Here the countdown is consumed only by Capture.Commit, which the
// store calls after a successful publish; Abort leaves it intact, so
// the next maintenance pass retries immediately. Keeping that rule in
// one shared place is what stops it regressing per-store.
//
// Protocol, per capture, with the store's exclusive cut lock held:
//
//	cut := tracker.Begin()
//	if cut.Full()  { cut.Seed(fullClone) }
//	else           { for k := range cut.Dirty() { cut.Resolve(k, v, live) } }
//	// release the cut lock — the merge is O(total) map work but needs
//	// no store locks
//	entries := cut.Merged()
//	publish(entries) == nil ? cut.Commit() : cut.Abort()
//
// Captures are serialized by the store's maintenance lock; only Mark
// and AddEvents race with them.

// Tracker accumulates the dirty set and the event countdown between
// snapshot captures of one store. The zero value is ready to use; the
// first capture is always full (no published baseline exists).
type Tracker[K comparable, V any] struct {
	mu sync.Mutex
	// began is set by the first Begin; until then Mark records nothing.
	began bool
	dirty map[K]struct{}
	// prev holds the entries of the last published snapshot. It is
	// mutated in place by Capture.Merged: even if the publish then
	// fails, prev is exactly the state at that capture's cut, and every
	// key changed after the cut is marked dirty as usual, so the next
	// capture is still correct.
	prev   map[K]V
	events uint64
}

// Mark records that k's entry changed (insert, update, delete or
// retarget) since the last capture began. Callers hold whatever store
// lock orders their mutation; the Tracker has its own mutex, so any
// context may call it.
//
// Before the first Begin it records nothing: the first capture is a
// full scan at its cut and never reads the dirty set, so a store that
// takes no snapshots (SnapshotEvery 0) would otherwise remember every
// key it ever wrote. The switch is the first Begin, not the first
// Commit — marks that land between the two are exactly what the second,
// incremental capture has to resolve.
func (t *Tracker[K, V]) Mark(k K) {
	t.mu.Lock()
	if t.began {
		if t.dirty == nil {
			t.dirty = make(map[K]struct{})
		}
		t.dirty[k] = struct{}{}
	}
	t.mu.Unlock()
}

// AddEvents advances the auto-snapshot countdown by n and returns the
// new total, for the store's SnapshotEvery threshold check.
func (t *Tracker[K, V]) AddEvents(n int) uint64 {
	t.mu.Lock()
	t.events += uint64(n)
	v := t.events
	t.mu.Unlock()
	return v
}

// Events reports the countdown: events recorded since the last
// successfully published capture.
func (t *Tracker[K, V]) Events() uint64 {
	t.mu.Lock()
	v := t.events
	t.mu.Unlock()
	return v
}

// Begin opens a capture at the current cut, taking ownership of the
// dirty set accumulated so far. The caller must hold the store lock
// that excludes mutators for the duration of the Resolve/Seed phase.
func (t *Tracker[K, V]) Begin() *Capture[K, V] {
	t.mu.Lock()
	cut := &Capture[K, V]{t: t, dirty: t.dirty, events: t.events, full: t.prev == nil}
	t.dirty = nil
	t.began = true
	t.mu.Unlock()
	if !cut.full {
		cut.upd = make(map[K]V, len(cut.dirty))
		cut.del = make(map[K]struct{})
	}
	return cut
}

// Capture is one in-flight snapshot capture. Not safe for concurrent
// use; the store's maintenance pass drives it single-threaded.
type Capture[K comparable, V any] struct {
	t      *Tracker[K, V]
	full   bool
	dirty  map[K]struct{}
	events uint64
	upd    map[K]V
	del    map[K]struct{}
	seeded map[K]V
	merged map[K]V
}

// Full reports whether this capture must seed from a full scan — no
// published baseline exists yet.
func (c *Capture[K, V]) Full() bool { return c.full }

// Dirty is the set of keys the store must Resolve (nil for a full
// capture). The capture owns the map; the store only ranges over it.
func (c *Capture[K, V]) Dirty() map[K]struct{} { return c.dirty }

// Resolve records k's current entry: v when live is true, a deletion
// otherwise. Incremental captures only.
func (c *Capture[K, V]) Resolve(k K, v V, live bool) {
	if live {
		c.upd[k] = v
	} else {
		c.del[k] = struct{}{}
	}
}

// Seed installs the full clone for a full capture.
func (c *Capture[K, V]) Seed(m map[K]V) { c.seeded = m }

// Merged returns the complete entry map at the cut: the seed for a
// full capture, or the previous snapshot's entries patched with the
// resolved dirty keys. The merge mutates the tracker's baseline in
// place (see Tracker.prev) and needs no store locks — call it after
// releasing the cut lock. Idempotent.
func (c *Capture[K, V]) Merged() map[K]V {
	if c.merged != nil {
		return c.merged
	}
	if c.full {
		c.merged = c.seeded
		if c.merged == nil {
			c.merged = map[K]V{}
		}
		return c.merged
	}
	m := c.t.prev
	for k := range c.del {
		delete(m, k)
	}
	for k, v := range c.upd {
		m[k] = v
	}
	c.merged = m
	return m
}

// Commit records a successful publish: the merged entries become the
// next capture's baseline and the countdown drops by the events this
// capture covered (events recorded since Begin carry over).
func (c *Capture[K, V]) Commit() {
	m := c.Merged()
	t := c.t
	t.mu.Lock()
	t.prev = m
	if t.events >= c.events {
		t.events -= c.events
	} else {
		t.events = 0
	}
	t.mu.Unlock()
}

// Abort records a failed capture or publish: the dirty keys return to
// the tracker so the next capture re-resolves them, and the countdown
// is untouched — the next maintenance pass retries at once.
func (c *Capture[K, V]) Abort() {
	if len(c.dirty) == 0 {
		return
	}
	t := c.t
	t.mu.Lock()
	if t.dirty == nil {
		t.dirty = make(map[K]struct{}, len(c.dirty))
	}
	for k := range c.dirty {
		t.dirty[k] = struct{}{}
	}
	t.mu.Unlock()
}
