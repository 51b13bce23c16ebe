// Package a is golden input for the lockorder analyzer.
//
//blobseer:lockorder S.a < S.b
package a

import "sync"

// S carries two mutexes with a declared order: a before b.
type S struct {
	a sync.Mutex
	b sync.Mutex
}

// good acquires in the declared order.
func good(s *S) {
	s.a.Lock()
	s.b.Lock()
	s.b.Unlock()
	s.a.Unlock()
}

// goodDeferred releases via defer; the held set must survive to the
// function end without tripping anything.
func goodDeferred(s *S) {
	s.a.Lock()
	defer s.a.Unlock()
	s.b.Lock()
	defer s.b.Unlock()
}

// bad inverts the declared order.
func bad(s *S) {
	s.b.Lock()
	s.a.Lock() // want `acquires S\.a while holding S\.b; declared order is S\.a < S\.b`
	s.a.Unlock()
	s.b.Unlock()
}

// reacquire takes the same mutex twice.
func reacquire(s *S) {
	s.a.Lock()
	s.a.Lock() // want `S\.a acquired while already held`
	s.a.Unlock()
	s.a.Unlock()
}

// takeA is a helper whose may-acquire summary includes S.a.
func takeA(s *S) {
	s.a.Lock()
	s.a.Unlock()
}

// callInverted acquires S.a transitively while holding S.b.
func callInverted(s *S) {
	s.b.Lock()
	takeA(s) // want `call to takeA may acquire S\.a while S\.b is held`
	s.b.Unlock()
}

// callReacquire re-takes S.a through the helper.
func callReacquire(s *S) {
	s.a.Lock()
	takeA(s) // want `call to takeA may re-acquire S\.a which is already held`
	s.a.Unlock()
}

// nested reaches takeA through an intermediate hop: summaries are
// transitive.
func nested(s *S) {
	s.b.Lock()
	hop(s) // want `call to hop may acquire S\.a while S\.b is held`
	s.b.Unlock()
}

func hop(s *S) { takeA(s) }

// waived re-takes S.a but carries a justified ignore; the runner must
// suppress it, so no want here.
func waived(s *S) {
	s.a.Lock()
	//blobseer:ignore lockorder golden fixture: provably distinct instance
	s.a.Lock()
	s.a.Unlock()
	s.a.Unlock()
}

// closures are skipped: the FuncLit body runs at an unknown time.
func closures(s *S) {
	s.b.Lock()
	_ = func() {
		s.a.Lock()
		s.a.Unlock()
	}
	s.b.Unlock()
}

// taker is a local interface; locker implements it by taking S.a.
type taker interface{ take() }

type locker struct{ s *S }

func (l locker) take() { takeA(l.s) }

// throughInterface reaches S.a through a call on a local interface:
// the call resolves to every local implementation.
func throughInterface(s *S, t taker) {
	s.b.Lock()
	t.take() // want `call to take may acquire S\.a while S\.b is held`
	s.b.Unlock()
}

// closer's only local implementation takes no lock.
type closer interface{ Close() error }

type nopCloser struct{}

func (nopCloser) Close() error { return nil }

// Close takes S.a, but *S does not implement closer: its Close has
// another signature.
func (s *S) Close() {
	s.a.Lock()
	s.a.Unlock()
}

// closeUnderB calls closer.Close under S.b: only nopCloser.Close can
// run, so no finding, though S.Close shares the name.
func closeUnderB(s *S, c closer) {
	s.b.Lock()
	c.Close()
	s.b.Unlock()
}
