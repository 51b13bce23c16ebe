package vclock

import "sync"

// Mutex is a scheduler-aware mutual-exclusion lock. A goroutine blocked in
// Lock parks through a Scheduler event, so under a Virtual scheduler the
// wait is visible to the clock and simulated time keeps advancing. Holding
// a plain sync.Mutex across an operation that blocks in virtual time (for
// example a simnet Write) wedges the whole simulation: the second locker
// blocks invisibly with the baton in hand, so the first never runs again
// to unlock. Use Mutex wherever a lock can be held across such a wait.
//
// Lock order is FIFO. The zero value is not usable; construct with
// NewMutex.
type Mutex struct {
	sched Scheduler

	mu     sync.Mutex // guards the fields below only; never held while blocked
	locked bool
	q      []Event // parked waiters in arrival order
}

// NewMutex returns an unlocked Mutex that parks waiters on s.
func NewMutex(s Scheduler) *Mutex { return &Mutex{sched: s} }

// Lock acquires the mutex, blocking through the scheduler while another
// goroutine holds it. A non-nil error means the scheduler shut down before
// the lock was acquired; the caller must not enter the critical section
// and must not call Unlock.
func (m *Mutex) Lock() error {
	m.mu.Lock()
	if !m.locked {
		m.locked = true
		m.mu.Unlock()
		return nil
	}
	ev := m.sched.NewEvent()
	m.q = append(m.q, ev)
	m.mu.Unlock()
	if _, err := ev.Wait(nil); err != nil {
		// Scheduler shutdown: ownership was never transferred. Remove the
		// stale queue entry so Unlock does not try to hand the lock to a
		// goroutine that has already unwound.
		m.mu.Lock()
		for i, q := range m.q {
			if q == ev {
				m.q = append(m.q[:i], m.q[i+1:]...)
				break
			}
		}
		m.mu.Unlock()
		return err
	}
	return nil
}

// Unlock releases the mutex, handing ownership to the oldest waiter if any.
// Unlock of an unlocked Mutex panics, mirroring sync.Mutex.
func (m *Mutex) Unlock() {
	for {
		m.mu.Lock()
		if !m.locked {
			m.mu.Unlock()
			panic("vclock: Unlock of unlocked Mutex")
		}
		if len(m.q) == 0 {
			m.locked = false
			m.mu.Unlock()
			return
		}
		ev := m.q[0]
		m.q = m.q[1:]
		m.mu.Unlock()
		// Ownership transfers directly: locked stays true. A waiter that
		// already unwound with ErrStopped leaves its event delivered; skip
		// it and try the next one.
		if tryFire(ev, nil) {
			return
		}
	}
}

// tryFire delivers v to ev unless it was already delivered (for example by
// scheduler shutdown). It reports whether this call delivered the payload.
func tryFire(ev Event, v any) bool {
	switch e := ev.(type) {
	case *virtEvent:
		e.clock.mu.Lock()
		defer e.clock.mu.Unlock()
		if e.fired {
			return false
		}
		e.deliverLocked(v, nil)
		e.clock.dispatchLocked()
		return true
	case *realEvent:
		return e.fire(v)
	default:
		ev.Fire(v)
		return true
	}
}
