package seglog

import (
	"runtime"
	"sync"
)

// Group commit, shared by the version WAL and the KV: concurrent appends
// coalesce into batches, the first appender to find no active leader
// becomes one, takes everything queued with it, writes the whole batch
// with a single write and at most one fsync, and wakes the batch.
// Leadership lasts exactly one batch — anything queued behind the batch
// is handed to the first of those waiters. Appenders park until their
// batch is durable, so the write-ahead contract (state applies only
// after the record is on disk) holds while concurrent handlers share
// fsyncs.
//
// Stores keep their outer locks out of the fsync two ways:
//
//   - Two-phase append (Enqueue + Await): the handler enqueues while
//     holding its store locks, releases them, and only then parks for
//     durability — so a blob's shard is free while the leader sits in
//     the fsync. The store applies state at enqueue time and
//     acknowledges after Await; FailStop keeps the durable log a prefix
//     of the enqueue order when a commit fails. Such a store cannot cut
//     a snapshot of its live state at a log position — records are
//     applied before they are durable — and does not try: the version
//     WAL snapshots by folding sealed segments, and to seal one it
//     needs only LeadingLocked (roll now, or leave it to the leader's
//     MaybeRoll), never a wait for the queue to drain.
//   - The Outer callback: when state must apply only after the commit
//     (the KV assigns offsets at commit time), the exclusive
//     committer itself takes a shared outer lock across Commit+Apply,
//     so appenders never hold it across their park and a capture's
//     exclusive acquisition still fences out in-flight batches.
//
// The Committer borrows the store's writer mutex rather than owning
// one, so the store keeps its declared lock order (and its direct uses
// of the mutex for rolls, captures and shutdown) unchanged.

// Cell is one queued appender's parking spot, embedded in the store's
// append-request type. The zero value is ready to use.
type Cell struct {
	// done is made, under the writer mutex, only by an owner that finds
	// its record undelivered and has to park; delivery closes it if it
	// is there. A leader never parks, and a two-phase owner whose batch
	// resolved before it came back to Await does not either, so most
	// records of a batched request never pay for a channel.
	done chan struct{}
	err  error
	// delivered guards against double delivery; promoted tells the
	// woken waiter its record is NOT yet durable and it must lead the
	// next batch itself. Both are written under the writer mutex and
	// read by the owner either under it or after done fires.
	delivered bool
	promoted  bool
	// leads marks a record whose Enqueue found no active leader: its
	// owner must lead when it comes back to Await. Written and read only
	// by the owning goroutine (set under Mu, but that is incidental).
	leads bool
}

// Parked is implemented by the store's append-request type.
type Parked interface{ Cell() *Cell }

// Committer runs the leader/batch protocol over the store's request
// type T. All callback fields must be set before the first Append
// (MaybeRoll and Apply may be nil).
type Committer[T Parked] struct {
	// Mu is the store's writer mutex; it guards the queue and leader
	// flag here plus whatever writer state the store keeps (active
	// segment, sizes). The store declares its lock order.
	Mu *sync.Mutex
	// Closed reports shutdown; called with Mu held.
	Closed func() bool
	// ErrClosed is returned to appenders racing shutdown.
	ErrClosed error
	// Commit writes one batch contiguously to the active segment with a
	// single write and at most one fsync. Called by the exclusive
	// committer — the leader, outside Mu — so the store's active-segment
	// fields need no extra synchronization: the segment cannot roll while
	// a commit is in flight. On error nothing may be applied.
	Commit func(batch []T) error
	// Apply, when set, applies a durable batch's state effects; called
	// with Mu held.
	Apply func(batch []T)
	// MaybeRoll, when set, is called with Mu held after a successful
	// commit+apply; the store rolls its active segment if oversized
	// (best effort — a failed roll leaves the oversized segment active).
	MaybeRoll func()
	// Outer, when set, acquires a shared outer lock and returns its
	// release. The exclusive committer holds it from just before Commit
	// until after Apply+MaybeRoll, so a capture that takes the same lock
	// exclusively fences out in-flight batches without appenders ever
	// holding it across their park. Acquired with Mu released (the outer
	// lock orders before Mu in the store's declared order).
	Outer func() func()
	// FailStop wedges the committer after the first commit error: every
	// queued and future append fails with that error. Required by stores
	// that apply state at enqueue time (the version WAL) — without it a
	// failed batch followed by a successful one would leave per-key gaps
	// in the durable log that replay rejects.
	FailStop bool

	queue   []T
	leading bool
	failed  error
}

// Append writes one record durably and applies its effects. Concurrent
// appends coalesce into group commits.
func (c *Committer[T]) Append(a T) error {
	c.Mu.Lock()
	if err := c.admitLocked(); err != nil {
		c.Mu.Unlock()
		return err
	}
	c.queue = append(c.queue, a)
	if !c.leading {
		c.leading = true
		return c.lead(a.Cell()) // releases Mu
	}
	return c.park(a.Cell()) // releases Mu
}

// park waits, if it still has to, until cell is delivered — its batch
// resolved, or leadership handed to it — and returns the record's
// outcome, leading the next batch first when promoted. Called with Mu
// held; returns with Mu released.
func (c *Committer[T]) park(cell *Cell) error {
	if !cell.delivered {
		cell.done = make(chan struct{})
		c.Mu.Unlock()
		<-cell.done
	} else {
		c.Mu.Unlock()
	}
	if cell.promoted {
		c.Mu.Lock()
		return c.lead(cell) // releases Mu
	}
	return cell.err
}

// admitLocked is the shared entry check: closed stores and wedged
// fail-stop committers reject new records. Called with Mu held.
func (c *Committer[T]) admitLocked() error {
	if c.Closed() {
		return c.ErrClosed
	}
	if c.failed != nil {
		return c.failed
	}
	return nil
}

// Enqueue queues one record for commit and returns without waiting for
// durability — phase one of a two-phase append. The caller typically
// holds store locks Append would stall across the fsync; it applies the
// record's state effects under those locks (the committer's Apply must
// be nil then), releases them, and calls Await to park for durability.
func (c *Committer[T]) Enqueue(a T) error {
	c.Mu.Lock()
	defer c.Mu.Unlock()
	if err := c.admitLocked(); err != nil {
		return err
	}
	c.queue = append(c.queue, a)
	if !c.leading {
		c.leading = true
		a.Cell().leads = true
	}
	return nil
}

// Await parks until a record queued with Enqueue is durable and returns
// its outcome — phase two. Must not be called holding any lock ordered
// at or after Mu.
func (c *Committer[T]) Await(a T) error {
	cell := a.Cell()
	c.Mu.Lock()
	if cell.leads {
		cell.leads = false
		if cell.delivered {
			// Shutdown (or a caretaker pass) resolved the record before
			// its owner came back to lead.
			err := cell.err
			c.Mu.Unlock()
			return err
		}
		return c.lead(cell) // releases Mu
	}
	return c.park(cell) // releases Mu
}

// LeadingLocked reports whether a leader is designated or mid-batch.
// When none is, the queue is empty and no commit is in flight, so a
// caller holding Mu may change the writer state Commit reads lock-free
// (roll the segment). When one is, its batch is still to come: work left
// for MaybeRoll gets done unless that commit fails or the store closes.
// Called with Mu held.
func (c *Committer[T]) LeadingLocked() bool { return c.leading }

// lead commits one batch — the current queue, which includes self's own
// record — delivers the outcome, and hands leadership to the first
// appender queued behind the batch. self is nil for a caretaker pass
// with no record of its own (tests). Called with Mu held; returns
// self's outcome with Mu released.
func (c *Committer[T]) lead(self *Cell) error {
	// Collect: yield once so appenders that are runnable right now —
	// typically the batch just delivered, already back with their next
	// record — join this batch instead of each eating an fsync. This is
	// what makes group commit form on a single core, where a leader
	// blocked in a short fsync syscall does not reliably give up its P
	// to the waiting appenders.
	c.Mu.Unlock()
	runtime.Gosched()
	c.Mu.Lock()
	batch := c.queue
	c.queue = nil
	closed := c.Closed()
	failed := c.failed
	c.Mu.Unlock()
	var err error
	var release func()
	committed := false
	if closed {
		// Shutdown may already have drained the queue (batch can even be
		// empty, self's record included in the drain); every outcome
		// here is the same error, so the two drains cannot disagree.
		err = c.ErrClosed
	} else if failed != nil {
		err = failed
	} else if len(batch) > 0 {
		if c.Outer != nil {
			release = c.Outer()
		}
		committed = true
		err = c.Commit(batch)
	}
	c.Mu.Lock()
	if err == nil && len(batch) > 0 {
		if c.Apply != nil {
			c.Apply(batch)
		}
		if c.MaybeRoll != nil {
			c.MaybeRoll()
		}
	}
	if committed && err != nil && c.FailStop && c.failed == nil {
		c.failed = err
	}
	for _, a := range batch {
		cell := a.Cell()
		if cell == self {
			// Self returns synchronously; it may already be marked
			// delivered when it led a batch it was promoted into.
			cell.delivered = true
			cell.err = err
		} else {
			deliverLocked(cell, err)
		}
	}
	if len(c.queue) > 0 && !c.Closed() {
		// One-batch tenure: whoever queued first behind this batch leads
		// the next one; its record stays queued and commits in that
		// batch.
		next := c.queue[0].Cell()
		next.promoted = true
		deliverLocked(next, nil)
	} else {
		c.leading = false
	}
	c.Mu.Unlock()
	if release != nil {
		release()
	}
	return err
}

// deliverLocked wakes a parked appender exactly once. Called with the
// writer mutex held.
func deliverLocked(cell *Cell, err error) {
	if cell.delivered {
		return
	}
	cell.delivered = true
	cell.err = err
	if cell.done != nil {
		close(cell.done)
	}
}

// FailQueuedLocked delivers err to every queued appender and empties
// the queue; the store's shutdown calls it with Mu held. A promoted
// waiter was already woken and will observe closed when it leads;
// delivery skips it.
func (c *Committer[T]) FailQueuedLocked(err error) {
	for _, a := range c.queue {
		deliverLocked(a.Cell(), err)
	}
	c.queue = nil
}

// CaretakeLocked runs one leader pass with no record of its own — a
// test hook standing in for a returning leader. Called with Mu held;
// returns with Mu released.
func (c *Committer[T]) CaretakeLocked() error { return c.lead(nil) }

// SetLeadingLocked forces the leader flag — a test hook for pinning the
// queueing behaviour behind a leader mid-commit. Called with Mu held.
func (c *Committer[T]) SetLeadingLocked(v bool) { c.leading = v }

// QueueLenLocked reports the queued appender count. Called with Mu held.
func (c *Committer[T]) QueueLenLocked() int { return len(c.queue) }
