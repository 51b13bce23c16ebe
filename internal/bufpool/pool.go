package bufpool

import (
	"runtime"
	"sync"
	"weak"
)

// Pool recycles the scratch objects of one type — a plan, a routing,
// a decoded message — across calls, as Get and Put do buffers (whose
// size classes are Pools too). It is built with the type's reset, which
// empties an object for its next user and drops what it references of
// the last, and its poison, which overwrites what a holder may still
// read: slices emptied, ids set to values no tree holds. A Pool must
// not be copied.
//
// Put hands an object back; its caller, and everyone the object was
// lent to, reads nothing of it afterwards, and it is put once. Under
// PoisonReleased that rule is checked rather than trusted: Put never
// pools, it poisons the object and records it, and panics on a second
// Put of the same object, so a use after release or a double release
// fails every run instead of only when another goroutine happens to
// take the object inside the window.
type Pool[T any] struct {
	reset, poison func(*T)
	mu            sync.Mutex
	n, depth      int // held[:n] is the reserve, of at most depth
	held          [reserveDepth]*T
	spill         sync.Pool
	released      sync.Map // of weak.Pointer[T]: the poisoned objects still alive
}

// NewPool returns a Pool of *T that empties an object with reset when
// it is put back, or with poison under PoisonReleased.
func NewPool[T any](reset, poison func(*T)) *Pool[T] {
	return &Pool[T]{reset: reset, poison: poison, depth: reserveDepth}
}

// Reserve sets how many released objects p keeps in a reserve the
// collector never empties, as a class keeps buffers (16, and at most
// 16, unless set): a collection otherwise costs the pool what it held
// and makes the next Put rebuild its sync.Pool. A pool whose objects
// grow with the largest call keeps none, so a burst of large calls
// does not pin memory. It returns p.
func (p *Pool[T]) Reserve(depth int) *Pool[T] {
	p.depth = min(depth, reserveDepth)
	return p
}

// Get returns a recycled object, emptied by reset, or a zero one.
func (p *Pool[T]) Get() *T {
	if x := p.get(); x != nil {
		return x
	}
	return new(T)
}

// Put hands x back (see Pool).
func (p *Pool[T]) Put(x *T) {
	if !poison.Load() {
		p.reset(x)
		p.put(x)
		return
	}
	w := weak.Make(x)
	if _, twice := p.released.LoadOrStore(w, nil); twice {
		panic("bufpool: object released twice")
	}
	runtime.AddCleanup(x, func(w weak.Pointer[T]) { p.released.Delete(w) }, w)
	p.poison(x)
}

// get takes the most recently released object, or nil.
func (p *Pool[T]) get() *T {
	p.mu.Lock()
	if p.n > 0 {
		p.n--
		x := p.held[p.n]
		p.held[p.n] = nil
		p.mu.Unlock()
		return x
	}
	p.mu.Unlock()
	x, _ := p.spill.Get().(*T)
	return x
}

func (p *Pool[T]) put(x *T) {
	p.mu.Lock()
	if p.n < p.depth {
		p.held[p.n] = x
		p.n++
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()
	p.spill.Put(x)
}
