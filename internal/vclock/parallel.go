package vclock

import (
	"fmt"
	"runtime/debug"
	"sync"
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
	evs := make([]Event, n)
	for i := 0; i < n; i++ {
		i := i
		evs[i] = s.NewEvent()
		s.Go(func() {
			defer func() {
				if r := recover(); r != nil {
					evs[i].Fire(fmt.Errorf("vclock: panic in Parallel worker %d: %v\n%s",
						i, r, debug.Stack()))
				}
			}()
			evs[i].Fire(fn(i))
		})
	}
	var first error
	for i := 0; i < n; i++ {
		v, err := evs[i].Wait(nil)
		if err == nil {
			Recycle(evs[i]) // its worker's Fire was the worker's last touch
		}
		if err != nil && first == nil {
			first = err
		}
		if e, ok := v.(error); ok && first == nil {
			first = e
		}
	}
	return first
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
