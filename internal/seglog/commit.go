package seglog

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Group commit, shared by the Log and the KV: concurrent appends
// coalesce into batches, the first appender to find no active leader
// becomes one, takes everything queued with it, writes the whole batch
// with a single write and at most one fsync, and wakes the batch.
// Leadership lasts exactly one batch — anything queued behind the batch
// is handed to the first of those waiters. Appenders park until their
// batch is durable, so the write-ahead contract (state applies only
// after the record is on disk) holds while concurrent handlers share
// fsyncs.
//
// Stores keep their locks out of the fsync two ways:
//
//   - Two-phase append (Enqueue + Await): the handler enqueues while
//     holding its store locks, releases them, and only then parks for
//     durability — so a blob's shard is free while the leader sits in
//     the fsync. The store applies state at enqueue time and
//     acknowledges after Await; FailStop keeps the durable log a prefix
//     of the enqueue order when a commit fails.
//   - Apply: when state must apply only after the commit (the KV assigns
//     offsets at commit time), the leader applies the durable batch
//     under the writer mutex, so appenders never hold a store lock
//     across their park.
//
// Neither kind of store cuts a snapshot of its live state at a log
// position: both snapshot by folding sealed segments over the previous
// snapshot, off the disk. To seal a segment a snapshotter needs the one
// hand-off below, SealLocked: roll now when no leader is designated or
// mid-batch, or have the leader roll at its batch tail and answer — the
// roll never overlaps a commit, and no appender ever waits for it.
//
// The committer borrows the store's writer mutex rather than owning
// one, so the store keeps its declared lock order (and its direct uses
// of the mutex for rolls and shutdown) unchanged.

// cell is one queued appender's parking spot, embedded in the store's
// append-request type. The zero value is ready to use.
type cell struct {
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

// parked is implemented by the store's append-request type.
type parked interface{ slot() *cell }

// committer runs the leader/batch protocol over the store's request
// type T. All callback fields must be set before the first Append
// (MaybeRoll and Apply may be nil).
type committer[T parked] struct {
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
	// FailStop wedges the committer after the first commit error: every
	// queued and future append fails with that error. Required by stores
	// that apply state at enqueue time (the Log) — without it a
	// failed batch followed by a successful one would leave per-key gaps
	// in the durable log that replay rejects.
	FailStop bool

	queue   []T
	leading bool
	failed  error
	// seal is a SealLocked caller's roll, handed to the leader to run at
	// its batch tail; sealDone receives its outcome.
	seal     func() error
	sealDone chan error
}

// Append writes one record durably and applies its effects. Concurrent
// appends coalesce into group commits.
func (c *committer[T]) Append(a T) error {
	c.Mu.Lock()
	if err := c.admitLocked(); err != nil {
		c.Mu.Unlock()
		return err
	}
	c.queue = append(c.queue, a)
	if !c.leading {
		c.leading = true
		return c.lead(a.slot()) // releases Mu
	}
	return c.park(a.slot()) // releases Mu
}

// park waits, if it still has to, until cell is delivered — its batch
// resolved, or leadership handed to it — and returns the record's
// outcome, leading the next batch first when promoted. Called with Mu
// held; returns with Mu released.
func (c *committer[T]) park(cell *cell) error {
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
func (c *committer[T]) admitLocked() error {
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
func (c *committer[T]) Enqueue(a T) error {
	c.Mu.Lock()
	defer c.Mu.Unlock()
	if err := c.admitLocked(); err != nil {
		return err
	}
	c.queue = append(c.queue, a)
	if !c.leading {
		c.leading = true
		a.slot().leads = true
	}
	return nil
}

// Await parks until a record queued with Enqueue is durable and returns
// its outcome — phase two. Must not be called holding any lock ordered
// at or after Mu.
func (c *committer[T]) Await(a T) error {
	cell := a.slot()
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

// lead commits one batch — the current queue, which includes self's own
// record — delivers the outcome, and hands leadership to the first
// appender queued behind the batch. self is nil for a caretaker pass
// with no record of its own (tests). Called with Mu held; returns
// self's outcome with Mu released.
func (c *committer[T]) lead(self *cell) error {
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
	committed := false
	if closed {
		// Shutdown may already have drained the queue (batch can even be
		// empty, self's record included in the drain); every outcome
		// here is the same error, so the two drains cannot disagree.
		err = c.ErrClosed
	} else if failed != nil {
		err = failed
	} else if len(batch) > 0 {
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
	c.answerSealLocked(err)
	for _, a := range batch {
		cell := a.slot()
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
		next := c.queue[0].slot()
		next.promoted = true
		deliverLocked(next, nil)
	} else {
		c.leading = false
	}
	c.Mu.Unlock()
	return err
}

// deliverLocked wakes a parked appender exactly once. Called with the
// writer mutex held.
func deliverLocked(cell *cell, err error) {
	if cell.delivered {
		return
	}
	cell.delivered = true
	cell.err = err
	if cell.done != nil {
		close(cell.done)
	}
}

// FailQueuedLocked delivers err to every queued appender and to a
// waiting SealLocked, and empties the queue; the store's shutdown calls
// it with Mu held. A promoted waiter was already woken and will observe
// closed when it leads; delivery skips it.
func (c *committer[T]) FailQueuedLocked(err error) {
	for _, a := range c.queue {
		deliverLocked(a.slot(), err)
	}
	c.queue = nil
	c.answerSealLocked(err)
}

// SealLocked runs roll — a change to the writer state Commit reads
// lock-free, typically sealing the active segment — where no commit is
// in flight, and returns its outcome. With no leader designated or
// mid-batch the queue is empty and roll runs here; otherwise the leader
// runs it at its batch tail, after Apply and MaybeRoll, and SealLocked
// waits with Mu released. When that batch fails, or the store closes
// first, roll never runs and the failure is returned: a segment whose
// tail a failed write may have left torn must not be sealed. Appenders
// never wait for a seal. Called with Mu held, by one caller at a time
// (the store's maintenance serializes them); returns with Mu held.
func (c *committer[T]) SealLocked(roll func() error) error {
	if err := c.admitLocked(); err != nil {
		return err
	}
	if !c.leading {
		return roll()
	}
	done := make(chan error, 1)
	c.seal, c.sealDone = roll, done
	c.Mu.Unlock()
	err := <-done
	c.Mu.Lock()
	return err
}

// answerSealLocked hands a waiting SealLocked its outcome: err when the
// batch it waited for failed, else what its roll returns. Called with
// Mu held, with no commit in flight.
func (c *committer[T]) answerSealLocked(err error) {
	if c.sealDone == nil {
		return
	}
	if err == nil {
		err = c.seal()
	}
	c.sealDone <- err
	c.seal, c.sealDone = nil, nil
}

// gateNext makes the next batch park inside Commit — where the leader
// holds no lock and nothing is written — and closes entered once it is
// parked. Closing release (or sending nil) lets it go on; sending an
// error fails it with that error, unwritten. It swaps Commit
// unsynchronized: the logs' GateNextCommit test hooks.
func (c *committer[T]) gateNext() (entered <-chan struct{}, release chan<- error) {
	parked, verdict := make(chan struct{}), make(chan error)
	var gated atomic.Bool
	gated.Store(true)
	inner := c.Commit
	c.Commit = func(batch []T) error {
		if gated.CompareAndSwap(true, false) {
			close(parked)
			if err := <-verdict; err != nil {
				return err
			}
		}
		return inner(batch)
	}
	return parked, verdict
}
