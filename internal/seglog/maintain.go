package seglog

import "sync"

// Maintainer runs a store's background maintenance (snapshots,
// compaction, checkpoints) as a plain goroutine — maintenance is disk
// work with no simulated-time component. Nudges coalesce: at most one
// is ever pending. Errors inside the pass are not fatal — the log
// simply keeps growing until the next trigger succeeds.
type Maintainer struct {
	c    chan struct{}
	quit chan struct{}
	wg   sync.WaitGroup // plain sync: the loop never blocks in virtual time
	pass func() bool    // one maintenance pass; false stops the loop
}

// NewMaintainer returns a stopped maintainer; Start launches the loop.
// pass runs once per nudge and returns false to stop the loop (the
// store observed shutdown).
func NewMaintainer(pass func() bool) *Maintainer {
	return &Maintainer{
		c:    make(chan struct{}, 1),
		quit: make(chan struct{}),
		pass: pass,
	}
}

// Start launches the maintenance goroutine, which Stop joins.
func (m *Maintainer) Start() {
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		for {
			select {
			case <-m.quit:
				return
			case <-m.c:
				if !m.pass() {
					return
				}
			}
		}
	}()
}

// Nudge wakes the maintainer (no-op when none runs, or when a nudge is
// already pending).
func (m *Maintainer) Nudge() {
	if m == nil {
		return
	}
	select {
	case m.c <- struct{}{}:
	default:
	}
}

// Stop ends the loop and waits for any in-flight pass to finish, so
// after Stop returns no maintenance touches the store. Nil-safe;
// idempotent is the caller's problem: stores call it exactly once from
// Close, guarded by their closed flag. Callers must not hold a lock the
// pass acquires, or the join deadlocks.
func (m *Maintainer) Stop() {
	if m == nil {
		return
	}
	close(m.quit)
	m.wg.Wait()
}
