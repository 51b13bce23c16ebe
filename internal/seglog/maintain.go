package seglog

import "sync"

// maintainer runs a store's background maintenance (snapshots,
// compaction, checkpoints) as a plain goroutine — maintenance is disk
// work with no simulated-time component. Nudges coalesce: at most one
// is ever pending. Errors inside the pass are not fatal — the log
// simply keeps growing until the next trigger succeeds.
type maintainer struct {
	c    chan struct{}
	quit chan struct{}
	wg   sync.WaitGroup // plain sync: the loop never blocks in virtual time
	pass func() bool    // one maintenance pass; false stops the loop
}

// startMaintainer launches the maintenance goroutine of every KV and
// Log, which stop joins. pass runs once per nudge and returns false to
// stop the loop; due nudges it at once, for work recovery left behind.
func startMaintainer(pass func() bool, due bool) *maintainer {
	m := &maintainer{
		c:    make(chan struct{}, 1),
		quit: make(chan struct{}),
		pass: pass,
	}
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
	if due {
		m.nudge()
	}
	return m
}

// nudge wakes the maintainer (no-op when none runs, or when a nudge is
// already pending).
func (m *maintainer) nudge() {
	if m == nil {
		return
	}
	select {
	case m.c <- struct{}{}:
	default:
	}
}

// stop ends the loop and waits for any in-flight pass to finish, so
// after stop returns no maintenance touches the store. Nil-safe;
// idempotent is the caller's problem: stores call it exactly once from
// Close, guarded by their closed flag. Callers must not hold a lock the
// pass acquires, or the join deadlocks.
func (m *maintainer) stop() {
	if m == nil {
		return
	}
	close(m.quit)
	m.wg.Wait()
}
