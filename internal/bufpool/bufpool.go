// Package bufpool is the one recycled-buffer pool of the page path: rpc
// frames on both sides of a connection, the pages — or tree-node
// values — a store reads for a GET, and the pages a client
// decodes and caches all come from here and go back here, so a buffer a
// read released is the buffer the next frame is built in. Pool is the
// same for typed scratch — plans, routings, decoded messages, request
// records — and the package's only sync.Pools sit under the two. It
// imports nothing of the repository's, so any layer may use it.
//
// Under PoisonReleased, a test mode, a released buffer is overwritten
// and a released object is poisoned, never reused, and may not be
// released again, so reading what was handed back, or handing it back
// twice, fails every run of the test that takes the path.
package bufpool

import (
	"math/bits"
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

var classes [maxShift - minShift + 1]Pool[[]byte]

func init() {
	for i := range classes {
		classes[i].depth = min(reserveDepth, reserveBytes>>(i+minShift))
	}
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

// poison makes Put overwrite every buffer it is handed, and a Pool
// keep and check every object, so a use after release reads garbage
// every time instead of only when the buffer happens to have been
// reused.
var poison atomic.Bool

// PoisonReleased switches the poison mode on or off and reports whether
// it was on: every buffer released here — rpc frame bodies, response
// frames, the pages a store lends a GET — is overwritten, and every
// object a Pool is handed is poisoned and never reused (see Pool). It
// is a test hook: a package's TestMain switches it on, and a test that
// pins what reuse saves switches it off for its own run.
func PoisonReleased(on bool) (was bool) { return poison.Swap(on) }

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
	if poison.Load() {
		Poison(b)
	}
	if len(b) < 1<<minShift || len(b) > MaxPooled {
		return
	}
	classes[bits.Len(uint(len(b)))-1-minShift].put(p)
}

// Poison overwrites b with the byte a released buffer reads under
// PoisonReleased: a Pool's poison uses it on the bytes it lent.
func Poison(b []byte) {
	if len(b) > 0 {
		b[0] = 0xDB
		for n := 1; n < len(b); n *= 2 {
			copy(b[n:], b[:n])
		}
	}
}

// shells keeps the *[]byte of every buffer that is out as a bare slice,
// so PutBytes has one to file the buffer under without allocating it.
var shells = Pool[[]byte]{depth: reserveDepth}

// GetBytes is Get for an owner whose interface deals in plain slices
// (pagestore.Store.Get): the buffer leaves as a []byte of length n and
// comes back through PutBytes.
func GetBytes(n int) []byte {
	p := Get(n)
	b := *p
	*p = nil
	shells.put(p)
	return b
}

// PutBytes releases a slice to the pool. Any slice qualifies, from
// GetBytes or not: like Put, it goes by capacity alone.
func PutBytes(b []byte) {
	p := shells.get()
	if p == nil {
		p = new([]byte)
	}
	*p = b
	Put(p)
}
