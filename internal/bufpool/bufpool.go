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

var classes [maxShift - minShift + 1]sync.Pool

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
	if p, _ := classes[class].Get().(*[]byte); p != nil {
		*p = (*p)[:n]
		return p
	}
	b := make([]byte, n, 1<<(class+minShift))
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
	classes[bits.Len(uint(len(b)))-1-minShift].Put(p)
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
