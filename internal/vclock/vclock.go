// Package vclock abstracts time and goroutine scheduling so that the same
// BlobSeer service code can run either in real time (production, tests)
// or in simulated virtual time (the virtual-time rows of internal/cluster,
// which replay the paper's Grid'5000 testbed on one machine).
//
// The Virtual scheduler implements discrete-event simulation with
// cooperating goroutines: every goroutine participating in the simulation
// is spawned through Go, and every blocking operation goes through Event
// or Sleep. The clock advances to the next pending timer exactly when all
// registered goroutines are blocked, so arbitrarily long simulated
// stretches execute in microseconds of wall time while preserving causal
// ordering and (simulated) durations.
package vclock

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// ErrStopped is delivered to goroutines still blocked when a Virtual
// scheduler shuts down after its Run function completes.
var ErrStopped = errors.New("vclock: scheduler stopped")

// ErrDeadlock is delivered to all blocked goroutines when the Virtual
// scheduler detects that every registered goroutine is blocked and no
// timer is pending: simulated time can never advance again.
var ErrDeadlock = errors.New("vclock: deadlock: all goroutines blocked with no pending timers")

// ErrHorizon is delivered when simulated time exceeds the configured
// horizon, which usually indicates a runaway simulation.
var ErrHorizon = errors.New("vclock: simulation horizon exceeded")

// Scheduler is the time-and-concurrency environment handed to every
// BlobSeer component. Real forwards to the Go runtime; Virtual simulates.
type Scheduler interface {
	// Go runs fn concurrently. Under Virtual, fn joins the simulation and
	// must block only through this Scheduler's primitives.
	Go(fn func())
	// Sleep pauses the calling goroutine for d. A non-nil error means the
	// scheduler is shutting down; periodic loops must exit instead of
	// retrying, or they would spin once virtual time stops.
	Sleep(d time.Duration) error
	// Now returns the time elapsed since the scheduler was created.
	Now() time.Duration
	// NewEvent returns a fresh one-shot event for blocking handoffs.
	NewEvent() Event
}

// Event is a one-shot synchronization point carrying a payload. Fire may
// be called at most once; Wait blocks until Fire (or scheduler shutdown)
// and returns the payload. Wait may be called at most once.
type Event interface {
	// Fire delivers v to the waiter. Calling Fire twice panics.
	Fire(v any)
	// Wait blocks until Fire. Under Real, ctx cancellation aborts the
	// wait; under Virtual ctx is ignored (the simulation is causal and
	// cancellation would break determinism).
	Wait(ctx context.Context) (any, error)
}

// --------------------------------------------------------------- real

// Real is the production Scheduler: wall-clock time and ordinary
// goroutines. Construct with NewReal.
type Real struct{ start time.Time }

// NewReal returns a Scheduler backed by the Go runtime.
func NewReal() *Real { return &Real{start: time.Now()} }

// Go implements Scheduler.
func (*Real) Go(fn func()) {
	//blobseer:goroutine detached Go is the spawn primitive itself: the caller owns the join, and vclock.WaitGroup.Go is the checked way to get one
	go fn()
}

// Sleep implements Scheduler.
func (*Real) Sleep(d time.Duration) error {
	time.Sleep(d)
	return nil
}

// Now implements Scheduler.
func (r *Real) Now() time.Duration { return time.Since(r.start) }

// NewEvent implements Scheduler.
func (*Real) NewEvent() Event { return &realEvent{ch: make(chan any, 1)} }

type realEvent struct {
	once sync.Once
	ch   chan any
}

func (e *realEvent) Fire(v any) {
	fired := false
	e.once.Do(func() {
		e.ch <- v
		fired = true
	})
	if !fired {
		panic("vclock: Event fired twice")
	}
}

func (e *realEvent) Wait(ctx context.Context) (any, error) {
	if ctx == nil {
		return <-e.ch, nil
	}
	select {
	case v := <-e.ch:
		return v, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// ------------------------------------------------------------- virtual

// Virtual is the discrete-event Scheduler. All participating goroutines
// are spawned via Go from inside Run; time advances only when every one
// of them is blocked in Sleep or Event.Wait.
type Virtual struct {
	mu       sync.Mutex
	now      time.Duration
	runnable int  // registered goroutines not currently blocked
	stopped  bool // Run finished or fatal condition; no new blocking
	fatal    error
	timers   timerQueue
	waiting  map[*virtEvent]struct{} // events with a blocked waiter
	horizon  time.Duration
	seq      int // tiebreak for deterministic timer order
	label    map[*virtEvent]string
}

// NewVirtual returns a simulation scheduler. The horizon bounds total
// simulated time as a runaway guard; 0 means a generous default (10^6 s).
func NewVirtual(horizon time.Duration) *Virtual {
	if horizon <= 0 {
		horizon = 1e6 * time.Second
	}
	return &Virtual{
		waiting: make(map[*virtEvent]struct{}),
		label:   make(map[*virtEvent]string),
		horizon: horizon,
	}
}

// Run executes root inside the simulation and blocks (in real time) until
// root returns. Goroutines spawned by root that are still blocked at that
// point receive ErrStopped from their pending waits so they can unwind.
// Run reports ErrDeadlock or ErrHorizon if the simulation wedged before
// root completed. Run must be called exactly once, and all interaction
// with simulated objects must happen on goroutines rooted in root.
func (v *Virtual) Run(root func()) error {
	done := make(chan struct{})
	v.mu.Lock()
	v.runnable++
	v.mu.Unlock()
	go func() {
		root()
		// Stop the world in the same critical section as this goroutine's
		// deregistration: otherwise the deadlock detector could fire on
		// service goroutines that legitimately outlive the experiment.
		v.mu.Lock()
		v.stopped = true
		v.runnable--
		for ev := range v.waiting {
			delete(v.waiting, ev)
			ev.deliverLocked(nil, ErrStopped)
		}
		v.timers = nil
		v.mu.Unlock()
		close(done)
	}()
	<-done
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.fatal
}

// Go implements Scheduler.
func (v *Virtual) Go(fn func()) {
	v.mu.Lock()
	v.runnable++
	v.mu.Unlock()
	//blobseer:goroutine detached Go is the spawn primitive itself: participants deregister through runnable accounting and Run joins the whole world
	go func() {
		defer func() {
			v.mu.Lock()
			v.runnable--
			v.maybeAdvanceLocked()
			v.mu.Unlock()
		}()
		fn()
	}()
}

// Now implements Scheduler.
func (v *Virtual) Now() time.Duration {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// Sleep implements Scheduler.
func (v *Virtual) Sleep(d time.Duration) error {
	if d <= 0 {
		v.mu.Lock()
		defer v.mu.Unlock()
		if v.stopped {
			return ErrStopped
		}
		return nil
	}
	ev := v.newVirtEvent("sleep")
	v.FireAt(ev, d)
	_, err := ev.Wait(nil)
	return err
}

// NewEvent implements Scheduler.
func (v *Virtual) NewEvent() Event { return v.newVirtEvent("") }

// NewNamedEvent returns an event whose label appears in deadlock
// diagnostics.
func (v *Virtual) NewNamedEvent(label string) Event { return v.newVirtEvent(label) }

func (v *Virtual) newVirtEvent(label string) *virtEvent {
	ev := &virtEvent{clock: v}
	if label != "" {
		v.mu.Lock()
		v.label[ev] = label
		v.mu.Unlock()
	}
	return ev
}

// FireAt schedules ev to fire with a nil payload after simulated delay d.
// It is the building block for timers and the network simulator's
// transfer completions.
func (v *Virtual) FireAt(e Event, d time.Duration) {
	ev, ok := e.(*virtEvent)
	if !ok {
		panic("vclock: FireAt requires an event from this scheduler")
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.stopped {
		ev.deliverLocked(nil, ErrStopped)
		return
	}
	v.seq++
	heap.Push(&v.timers, timerEntry{at: v.now + d, seq: v.seq, ev: ev})
}

// maybeAdvanceLocked fires the next timer when no goroutine can run,
// advancing simulated time to it. Timers fire one cascade at a time, in
// (at, seq) order: the next is released only once everything the last
// one woke has blocked again, so the order within a virtual instant is
// fixed rather than left to the Go runtime. A timer that wakes nobody
// hands straight on to the next. Called with v.mu held.
func (v *Virtual) maybeAdvanceLocked() {
	for v.runnable == 0 && !v.stopped {
		if len(v.timers) == 0 {
			if len(v.waiting) != 0 {
				v.failLocked(ErrDeadlock)
			}
			return // else everything exited; Run is about to finish
		}
		next := v.timers[0].at
		if next > v.horizon {
			v.failLocked(fmt.Errorf("%w (at %v)", ErrHorizon, next))
			return
		}
		v.now = max(v.now, next)
		heap.Pop(&v.timers).(timerEntry).ev.fireLocked(nil, nil)
	}
}

// failLocked records a fatal condition and unwinds all blocked waiters.
func (v *Virtual) failLocked(err error) {
	if v.fatal == nil {
		v.fatal = fmt.Errorf("%w\n%s", err, v.snapshotLocked())
	}
	v.stopped = true
	for ev := range v.waiting {
		delete(v.waiting, ev)
		ev.deliverLocked(nil, err)
	}
	v.timers = nil
}

// snapshotLocked renders a diagnostic of blocked events for deadlock
// reports.
func (v *Virtual) snapshotLocked() string {
	counts := make(map[string]int)
	for ev := range v.waiting {
		l := v.label[ev]
		if l == "" {
			l = "unnamed"
		}
		counts[l]++
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	fmt.Fprintf(&b, "blocked waiters at t=%v:", v.now)
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%d", k, counts[k])
	}
	return b.String()
}

// virtEvent is the Virtual scheduler's Event. State transitions are
// protected by the scheduler mutex so runnable accounting is exact.
type virtEvent struct {
	clock   *Virtual
	fired   bool
	waited  bool
	payload any
	err     error
	ch      chan struct{} // created lazily by Wait
}

// Fire implements Event.
func (e *virtEvent) Fire(v any) {
	e.clock.mu.Lock()
	defer e.clock.mu.Unlock()
	e.fireLocked(v, nil)
}

// fireLocked delivers the payload, waking the waiter if present.
func (e *virtEvent) fireLocked(v any, err error) {
	if e.fired {
		panic("vclock: Event fired twice")
	}
	e.deliverLocked(v, err)
}

func (e *virtEvent) deliverLocked(v any, err error) {
	if e.fired {
		return
	}
	e.fired = true
	e.payload, e.err = v, err
	if e.ch != nil { // waiter already parked
		e.clock.runnable++
		delete(e.clock.waiting, e)
		close(e.ch)
	}
	delete(e.clock.label, e)
}

// Wait implements Event. ctx is ignored under Virtual.
func (e *virtEvent) Wait(context.Context) (any, error) {
	c := e.clock
	c.mu.Lock()
	if e.waited {
		c.mu.Unlock()
		panic("vclock: Event waited twice")
	}
	e.waited = true
	if e.fired {
		v, err := e.payload, e.err
		c.mu.Unlock()
		return v, err
	}
	if c.stopped {
		c.mu.Unlock()
		return nil, ErrStopped
	}
	e.ch = make(chan struct{})
	c.waiting[e] = struct{}{}
	c.runnable--
	c.maybeAdvanceLocked()
	c.mu.Unlock()
	<-e.ch
	return e.payload, e.err
}

// timerQueue is a min-heap of pending timers ordered by time, then
// insertion sequence for determinism.
type timerEntry struct {
	at  time.Duration
	seq int
	ev  *virtEvent
}

type timerQueue []timerEntry

func (q timerQueue) Len() int { return len(q) }
func (q timerQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q timerQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *timerQueue) Push(x interface{}) { *q = append(*q, x.(timerEntry)) }
func (q *timerQueue) Pop() interface{} {
	old := *q
	n := len(old)
	x := old[n-1]
	*q = old[:n-1]
	return x
}
