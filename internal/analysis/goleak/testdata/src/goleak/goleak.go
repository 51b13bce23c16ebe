// Package goleak is the golden fixture for the goleak analyzer: one
// case per join pattern, the leaks they exist to catch, and every
// escape hatch.
package goleak

import (
	"sync"

	"blobseer/internal/vclock"
)

// ---- pattern 1: WaitGroup (sync or vclock, same token shape) ----

func fanOut(n int) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
		}()
	}
	wg.Wait()
}

// ---- pattern 2: quit channel closed by the package ----

type worker struct {
	quit chan struct{}
}

func (w *worker) start() {
	go func() {
		for {
			select {
			case <-w.quit:
				return
			}
		}
	}()
}

func (w *worker) stop() { close(w.quit) }

// ---- pattern 3: completion channel received by the spawner ----

func runJoined() {
	done := make(chan struct{})
	go func() {
		close(done)
	}()
	<-done
}

func sendJoined() {
	res := make(chan int, 1)
	go func() {
		res <- 1
	}()
	<-res
}

// ---- pattern 4: event handshake through the scheduler ----

func eventJoined(s vclock.Scheduler) error {
	ev := s.NewEvent()
	s.Go(func() {
		ev.Fire(nil)
	})
	_, err := ev.Wait(nil)
	return err
}

// ---- join evidence found transitively through local calls ----

type pump struct {
	quit chan struct{}
}

func (p *pump) start() {
	go p.loop()
}

func (p *pump) loop() { p.inner() }
func (p *pump) inner() {
	for {
		select {
		case <-p.quit:
			return
		}
	}
}

func (p *pump) stop() { close(p.quit) }

// ---- a func-typed field, resolved through what the package stores in it ----

type job struct {
	wg  *sync.WaitGroup
	run func() // bound once, to the method that joins
}

func (j *job) body() { defer j.wg.Done() }

func (j *job) spawn(s vclock.Scheduler) {
	if j.run == nil {
		j.run = j.body
	}
	j.wg.Add(1)
	s.Go(j.run)
	j.wg.Wait()
}

type fan struct {
	evs     []vclock.Event
	workers []func()
}

func (f *fan) fire(i int) { f.evs[i].Fire(nil) }

func (f *fan) spawn(s vclock.Scheduler) {
	f.workers = append(f.workers, func() { f.fire(0) })
	s.Go(f.workers[0])
	f.evs[0].Wait(nil)
}

type loose struct {
	run func() // bound to nothing that joins
}

func (l *loose) idle() {}

func (l *loose) spawn(s vclock.Scheduler) {
	l.run = l.idle
	s.Go(l.run) // want `goroutine spawned here is not provably joined \(no join evidence`
}

type unbound struct{ run func() }

func (u *unbound) spawn(s vclock.Scheduler) {
	s.Go(u.run) // want `goroutine spawned here is not provably joined \(spawned function cannot be resolved`
}

// ---- a vclock.WaitGroup spawn joined by Wait in Close ----

type svc struct {
	wg *vclock.WaitGroup
}

func (s *svc) start() {
	s.wg.Go(func() {})
}

func (s *svc) close() error { return s.wg.Wait() }

// ---- the leaks ----

func leak() {
	go func() {}() // want `goroutine spawned here is not provably joined`
}

func leakSched(s vclock.Scheduler) {
	s.Go(func() {}) // want `goroutine spawned here is not provably joined`
}

func spawnArg(fn func()) {
	go fn() // want `goroutine spawned here is not provably joined \(spawned function cannot be resolved`
}

// ---- the escape hatch ----

func deliberate() {
	//blobseer:goroutine detached fixture: fire-and-forget by design
	go func() {}()
}

// A malformed directive (no reason) is itself reported and suppresses
// nothing: the spawn below still fires. The ignore waives only the
// malformed-directive finding.
func malformed() {
	//blobseer:ignore goleak pinning that a reason-less directive is reported and inert
	//blobseer:goroutine detached
	go func() {}() // want `goroutine spawned here is not provably joined`
}

var (
	_ = fanOut
	_ = runJoined
	_ = sendJoined
	_ = eventJoined
	_ = leak
	_ = leakSched
	_ = spawnArg
	_ = deliberate
	_ = malformed
)
