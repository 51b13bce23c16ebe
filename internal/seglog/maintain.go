package seglog

import (
	"sync"

	"blobseer/internal/vclock"
)

// maintainer starts a store's background maintenance (snapshots,
// compaction, checkpoints) the way every other background loop of the
// library starts: a pass is a goroutine spawned on the owner's scheduler
// and joined through a vclock.WaitGroup, so under a Virtual scheduler a
// pass runs in its turn of the baton and a rerun replays it. At most one
// pass goroutine exists at a time, and nudges that arrive while it runs
// coalesce into one more pass, so a burst of commits behind a slow pass
// neither piles up goroutines nor cuts the log into a segment per pass.
// Errors inside a pass are not fatal — the log simply keeps growing until
// the next trigger succeeds.
type maintainer struct {
	wg   *vclock.WaitGroup
	pass func()

	mu      sync.Mutex
	running bool // a pass goroutine is spawned and has not exited
	again   bool // a nudge arrived while it ran: pass once more
	stopped bool
}

// startMaintainer returns the maintainer of every KV and Log, which stop
// joins; a nil sched means the real clock. pass runs once per nudge; due
// nudges it at once, for work recovery left behind.
func startMaintainer(sched vclock.Scheduler, pass func(), due bool) *maintainer {
	if sched == nil {
		sched = vclock.NewReal()
	}
	m := &maintainer{wg: vclock.NewWaitGroup(sched), pass: pass}
	if due {
		m.nudge()
	}
	return m
}

// nudge spawns a pass, or asks the running one to pass again; after stop
// (and when no maintainer runs at all) it does nothing.
func (m *maintainer) nudge() {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	switch {
	case m.stopped:
	case m.running:
		m.again = true
	default:
		m.running = true
		m.wg.Go(m.run)
	}
}

// run is the pass goroutine: it passes until no nudge came in meanwhile.
func (m *maintainer) run() {
	for {
		m.pass()
		m.mu.Lock()
		if !m.again || m.stopped {
			m.running = false
			m.mu.Unlock()
			return
		}
		m.again = false
		m.mu.Unlock()
	}
}

// stop refuses later nudges and waits for every spawned pass to finish,
// so after stop returns no maintenance touches the store. Nil-safe;
// stores call it exactly once from Close, guarded by their closed flag.
// Callers must not hold a lock a pass acquires, or the join deadlocks.
func (m *maintainer) stop() {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.stopped = true
	m.mu.Unlock()
	m.wg.Wait()
}
