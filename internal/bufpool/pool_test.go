package bufpool

import (
	"runtime"
	"testing"
)

type scratch struct {
	ids  []int
	live bool
}

func newScratchPool() *Pool[scratch] {
	return NewPool(func(s *scratch) { s.ids, s.live = s.ids[:0], false },
		func(s *scratch) { clear(s.ids); s.ids, s.live = nil, false })
}

// TestPoolReusesReset: an object handed back is the next one handed
// out, emptied by reset but keeping its arrays, and a Get and Put that
// recycle allocate nothing, across collections too (the reserve).
func TestPoolReusesReset(t *testing.T) {
	defer PoisonReleased(PoisonReleased(false))
	p := newScratchPool()
	s := p.Get()
	s.ids, s.live = append(s.ids, 1, 2, 3), true
	p.Put(s)
	runtime.GC()
	runtime.GC()
	if got := p.Get(); got != s || len(got.ids) != 0 || cap(got.ids) < 3 || got.live {
		t.Fatalf("Get after Put = %p %+v, want %p emptied with its array", got, got, s)
	}
	if n := testing.AllocsPerRun(100, func() { p.Put(p.Get()) }); n != 0 {
		t.Fatalf("a Get and Put allocate %v times, want 0", n)
	}
}

// TestPoolPoisonsAndRefusesADoubleRelease: under the poison mode a
// released object is poisoned and never handed out again, and a second
// Put of it panics.
func TestPoolPoisonsAndRefusesADoubleRelease(t *testing.T) {
	defer PoisonReleased(PoisonReleased(true))
	p := newScratchPool()
	s := p.Get()
	s.ids, s.live = append(s.ids, 7), true
	ids := s.ids
	p.Put(s)
	if s.ids != nil || s.live || ids[0] != 0 {
		t.Fatalf("a released object reads %+v (ids %v), want it poisoned", s, ids)
	}
	if got := p.Get(); got == s {
		t.Fatal("a poisoned object was handed out again")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a second Put of one object did not panic")
		}
	}()
	p.Put(s)
}
