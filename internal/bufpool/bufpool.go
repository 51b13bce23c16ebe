// Package bufpool is the one recycled-buffer pool of the page path: rpc
// frames on both sides of a connection, the pages — or tree-node
// values — a store reads for a GET, and the pages a client
// decodes and caches all come from here and go back here, so a buffer a
// read released is the buffer the next frame is built in. It imports
// nothing of the repository's, so any layer may use it.
package bufpool

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// Recycled buffers come in power-of-two size classes from 1 KiB to
// MaxPooled. Anything larger is allocated for its one use and never
// pooled, so a 64 MiB frame cannot pin memory.
const (
	minShift = 10
	maxShift = 22

	// MaxPooled is the capacity of the largest class.
	MaxPooled = 1 << maxShift
)

// Each class keeps up to reserveDepth released buffers, and at most
// reserveBytes of them, in a reserve that the collector never empties,
// and spills the rest into a sync.Pool, which every collection drains.
// Without the reserve a cycle costs each class its warm buffers, so
// what a phase of the workload allocates would depend on how many
// cycles fall inside it: on the pacer, not on the code. The reserves
// pin at most 6 MiB, the classes above 1 MiB none.
const (
	reserveBytes = 1 << 20
	reserveDepth = 16
)

type classPool struct {
	mu    sync.Mutex
	n     int // held[:n] is the reserve
	depth int // how many buffers of this class the reserve keeps
	held  [reserveDepth]*[]byte
	spill sync.Pool
}

var classes [maxShift - minShift + 1]classPool

func init() {
	for i := range classes {
		classes[i].depth = min(reserveDepth, reserveBytes>>(i+minShift))
	}
}

// get takes the most recently released buffer of the class, or nil.
func (c *classPool) get() *[]byte {
	c.mu.Lock()
	if c.n > 0 {
		c.n--
		p := c.held[c.n]
		c.held[c.n] = nil
		c.mu.Unlock()
		return p
	}
	c.mu.Unlock()
	p, _ := c.spill.Get().(*[]byte)
	return p
}

func (c *classPool) put(p *[]byte) {
	c.mu.Lock()
	if c.n < c.depth {
		c.held[c.n] = p
		c.n++
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	c.spill.Put(p)
}

// missCount and missBytes count the Gets of a pooled class that found
// the pool empty and allocated, and the bytes they allocated. Only the
// miss path touches them.
var missCount, missBytes atomic.Uint64

// Misses reports how many Gets of a pooled class allocated a fresh
// buffer since the process started, and their bytes: the part of the
// process's allocation that depends on whether a released buffer was
// there to take — once a class's reserve is spent, on the collector and
// on which P asked — rather than on what the code does.
func Misses() (count, bytes uint64) { return missCount.Load(), missBytes.Load() }

// poison makes Put overwrite every buffer it is handed, so a use after
// release reads garbage every time instead of only when the buffer
// happens to have been reused.
var poison bool

// PoisonReleased switches the poison mode on for the rest of the
// process: every buffer released here — rpc frame bodies, response
// frames, the pages a store lends a GET — is overwritten. It is a test
// hook, called only from export_test.go files before their first test
// starts, which is why a plain bool will do.
func PoisonReleased() { poison = true }

// Get returns a buffer of length n from the smallest class that holds
// it. The caller owns it until it passes the same pointer to Put; if it
// grows the slice, it stores the grown one back through the pointer
// first. What the pool holds is the pointer, so taking and releasing a
// buffer allocates nothing, not even a boxed slice header.
func Get(n int) *[]byte {
	if n > MaxPooled {
		b := make([]byte, n)
		return &b
	}
	class := 0
	if n > 1<<minShift {
		class = bits.Len(uint(n-1)) - minShift
	}
	if p := classes[class].get(); p != nil {
		*p = (*p)[:n]
		return p
	}
	b := make([]byte, n, 1<<(class+minShift))
	missCount.Add(1)
	missBytes.Add(uint64(cap(b)))
	return &b
}

// Put releases a buffer obtained from Get. It files the buffer under
// the largest class its capacity covers, and drops one that is smaller
// than the smallest class or larger than the largest.
func Put(p *[]byte) {
	b := (*p)[:cap(*p)]
	if poison && len(b) > 0 {
		b[0] = 0xDB
		for n := 1; n < len(b); n *= 2 {
			copy(b[n:], b[:n])
		}
	}
	if len(b) < 1<<minShift || len(b) > MaxPooled {
		return
	}
	classes[bits.Len(uint(len(b)))-1-minShift].put(p)
}

// shells keeps the *[]byte of every buffer that is out as a bare slice,
// so PutBytes has one to file the buffer under without allocating it.
var shells sync.Pool

// GetBytes is Get for an owner whose interface deals in plain slices
// (pagestore.Store.Get): the buffer leaves as a []byte of length n and
// comes back through PutBytes.
func GetBytes(n int) []byte {
	p := Get(n)
	b := *p
	*p = nil
	shells.Put(p)
	return b
}

// PutBytes releases a slice to the pool. Any slice qualifies, from
// GetBytes or not: like Put, it goes by capacity alone.
func PutBytes(b []byte) {
	p, _ := shells.Get().(*[]byte)
	if p == nil {
		p = new([]byte)
	}
	*p = b
	Put(p)
}
