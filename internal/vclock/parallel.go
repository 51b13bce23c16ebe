package vclock

import (
	"fmt"
	"runtime/debug"
	"slices"
	"sync"

	"blobseer/internal/bufpool"
)

// Parallel runs fn(0..n-1) concurrently on s and waits for all calls to
// finish. It returns the first non-nil error by index order. Waiting is
// done through scheduler events, so it is safe inside simulations (a
// sync.WaitGroup would block invisibly and wedge the virtual clock). A
// panic in a worker is captured and returned as an error carrying the
// worker's stack, so one buggy worker cannot kill the process from a
// goroutine the caller cannot recover in.
func Parallel(s Scheduler, n int, fn func(i int) error) error {
	if n == 0 {
		return nil
	}
	if n == 1 {
		return fn(0) // no goroutine churn for the common single case
	}
	c := calls.Get()
	c.fn, c.evs = fn, slices.Grow(c.evs[:0], n)[:n]
	for i := len(c.workers); i < n; i++ {
		c.workers = append(c.workers, func() { c.work(i) })
	}
	for i := 0; i < n; i++ {
		c.evs[i] = s.NewEvent()
		s.Go(c.workers[i])
	}
	var first error
	delivered := 0
	for i := 0; i < n; i++ {
		v, err := c.evs[i].Wait(nil)
		if err == nil {
			Recycle(c.evs[i]) // its worker's Fire was the worker's last touch
			delivered++
		}
		if err != nil && first == nil {
			first = err
		}
		if e, ok := v.(error); ok && first == nil {
			first = e
		}
	}
	if delivered == n { // else a worker may still hold c
		calls.Put(c)
	}
	return first
}

// call is one Parallel call's scratch, recycled through calls: the
// workers' events, and a worker per index that runs fn(i) and fires
// event i, made once, when a call first needs it, and bound to the
// record, so a call spawns its workers without allocating them.
type call struct {
	fn      func(i int) error
	evs     []Event
	workers []func()
}

var calls = bufpool.NewPool((*call).reset, (*call).reset)

func (c *call) reset() { c.fn = nil; clear(c.evs) }

func (c *call) work(i int) {
	defer func() {
		if r := recover(); r != nil {
			c.evs[i].Fire(fmt.Errorf("vclock: panic in Parallel worker %d: %v\n%s", i, r, debug.Stack()))
		}
	}()
	c.evs[i].Fire(c.fn(i))
}

// ParallelLimit is Parallel with at most limit workers running at once.
// Work items are handed to workers in index order; after the first error,
// no new items start (in-flight items finish). A limit <= 0 means
// unbounded.
func ParallelLimit(s Scheduler, n, limit int, fn func(i int) error) error {
	if limit <= 0 || limit >= n {
		return Parallel(s, n, fn)
	}
	var mu sync.Mutex
	next := 0
	var firstErr error
	worker := func() {
		for {
			mu.Lock()
			if firstErr != nil || next >= n {
				mu.Unlock()
				return
			}
			i := next
			next++
			mu.Unlock()
			if err := fn(i); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				return
			}
		}
	}
	if err := Parallel(s, limit, func(int) error { worker(); return nil }); err != nil {
		return err
	}
	mu.Lock()
	defer mu.Unlock()
	return firstErr
}
