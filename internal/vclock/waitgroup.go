package vclock

import (
	"sync"
	"time"
)

// WaitGroup is a scheduler-aware join counter: the replacement for
// sync.WaitGroup wherever the waiter may run under a Virtual scheduler.
// A plain sync.WaitGroup.Wait blocks invisibly — the simulation counts
// the waiter as runnable, virtual time never advances, and the world
// wedges — so long-lived components join their goroutines through this
// type instead. Waiting parks through a scheduler Event, which both
// schedulers understand.
//
// The goleak analyzer treats a spawn through Go as joined when the
// package also calls Wait on the same WaitGroup token, so using this
// type is the checked way to spawn background goroutines.
type WaitGroup struct {
	sched Scheduler

	mu      sync.Mutex
	n       int
	waiters []Event
}

// NewWaitGroup returns a WaitGroup that parks waiters through sched.
func NewWaitGroup(sched Scheduler) *WaitGroup {
	return &WaitGroup{sched: sched}
}

// Add adjusts the counter, firing all parked waiters when it reaches
// zero. Like sync.WaitGroup, a negative counter panics.
func (w *WaitGroup) Add(delta int) {
	w.mu.Lock()
	w.n += delta
	if w.n < 0 {
		w.mu.Unlock()
		panic("vclock: negative WaitGroup counter")
	}
	var fire []Event
	if w.n == 0 {
		fire = w.waiters
		w.waiters = nil
	}
	w.mu.Unlock()
	for _, ev := range fire {
		ev.Fire(nil)
	}
}

// Done decrements the counter.
func (w *WaitGroup) Done() { w.Add(-1) }

// Go runs fn on the scheduler with the counter held for its lifetime:
// Add before spawn, Done when fn returns. Every spawn made this way is
// joined by a later Wait.
func (w *WaitGroup) Go(fn func()) {
	w.Add(1)
	//blobseer:goroutine detached the join is this WaitGroup's own contract: Wait returns only after the deferred Done, which the analyzer cannot tie to a Wait call absent from this package
	w.sched.Go(func() {
		defer w.Done()
		fn()
	})
}

// Wait blocks until the counter reaches zero. A non-nil error means the
// scheduler shut down first (Virtual only); the goroutines being joined
// were unwound by the same shutdown, so callers may treat it as joined.
func (w *WaitGroup) Wait() error {
	w.mu.Lock()
	if w.n == 0 {
		w.mu.Unlock()
		return nil
	}
	ev := w.sched.NewEvent()
	w.waiters = append(w.waiters, ev)
	w.mu.Unlock()
	_, err := ev.Wait(nil)
	return err
}

// Sleeper is the sleep of a periodic loop — a heartbeat, a sweep — that
// its owner's Close cuts short, so Close never waits out a period. Stop
// fires the pending sleep's event from the goroutine that calls it,
// through the scheduler: under Virtual it costs no virtual time and
// stays causal, which a context cancelled from a runtime goroutine
// would not.
type Sleeper struct {
	sched Scheduler

	mu      sync.Mutex
	stopped bool
	wake    Event // the pending Sleep's, nil between sleeps
}

// NewSleeper returns a Sleeper that sleeps on sched.
func NewSleeper(sched Scheduler) *Sleeper { return &Sleeper{sched: sched} }

// Sleep pauses for d. It returns ErrStopped once Stop has been called,
// and the scheduler's error if it shuts down first.
func (s *Sleeper) Sleep(d time.Duration) error {
	ev := s.sched.NewEvent()
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return ErrStopped
	}
	s.wake = ev
	s.mu.Unlock()
	if v, ok := s.sched.(*Virtual); ok {
		v.FireAt(ev, d) // dropped unfired if Stop fires ev first
	} else {
		defer time.AfterFunc(d, func() { tryFire(ev, nil) }).Stop()
	}
	_, err := ev.Wait(nil)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.wake = nil
	if err == nil && s.stopped {
		err = ErrStopped
	}
	return err
}

// Stop wakes a pending Sleep and makes every later one return at once.
func (s *Sleeper) Stop() {
	s.mu.Lock()
	s.stopped = true
	ev := s.wake
	s.mu.Unlock()
	if ev != nil {
		tryFire(ev, nil)
	}
}
