// Package pagestore implements the storage engines behind a data
// provider. A page is an immutable blob of bytes identified by a globally
// unique PageID; BlobSeer never overwrites a page in place (§3 of the
// paper), which keeps the engine interface small: put, ranged get, has.
//
// Two engines are provided: Mem, the sharded in-memory map of
// internal/memkv matching the paper's RAM-resident prototype, and Disk,
// the durable keyed store of internal/seglog keyed by page id (an
// extension beyond the paper).
package pagestore

import (
	"errors"
	"fmt"

	"blobseer/internal/memkv"
	"blobseer/internal/obs"
	"blobseer/internal/wire"
)

// ErrNotFound is returned by Get when the page is unknown.
var ErrNotFound = errors.New("pagestore: page not found")

// ErrBadRange is returned by Get when the requested byte range does not
// fit inside the page.
var ErrBadRange = errors.New("pagestore: byte range outside page")

// Store is a page storage engine. Implementations are safe for concurrent
// use. Pages are immutable: a second Put of the same id is a no-op (the
// contents are guaranteed identical because ids are globally unique and
// chosen by the creator of the bytes).
type Store interface {
	// Put stores data under id. It copies data: the caller may reuse or
	// overwrite the slice the moment Put returns, and the provider's
	// PUT_PAGE handler does — it passes bytes that alias a recycled rpc
	// frame (wire.PutPageReq), so an engine that kept the slice would
	// serve whatever the next frame wrote there.
	Put(id wire.PageID, data []byte) error
	// Get returns length bytes starting at off within page id. A length
	// of wire.WholePage returns everything from off to the end. The
	// returned slice must not be modified by the caller. It is the
	// caller's until the caller passes it to Release, at most once and
	// as the last thing it does with those bytes; not releasing is
	// always safe — the garbage collector takes the slice. A failed Get
	// lends nothing.
	Get(id wire.PageID, off, length uint32) ([]byte, error)
	// Release gives back a slice Get returned, so an engine that reads
	// pages into recycled buffers (Disk) can reuse it for a later Get.
	// The caller must hold no reference into data afterwards.
	Release(data []byte)
	// Has reports whether the page exists.
	Has(id wire.PageID) bool
	// Delete removes the page, making its bytes reclaimable. Deleting
	// an unknown page is a no-op. Deletion is final: ids are globally
	// unique and never reused, and the caller — a garbage collector
	// walking version metadata — must have proven the page unreachable
	// from every retained version before calling.
	Delete(id wire.PageID) error
	// Metrics writes the engine's store_* series.
	Metrics(*obs.Sink)
	// Close releases resources. The store must not be used afterwards.
	Close() error
}

// slicePage extracts the [off, off+length) range from a stored page,
// handling the WholePage sentinel and bounds checks. Shared by engines.
func slicePage(data []byte, off, length uint32) ([]byte, error) {
	if uint64(off) > uint64(len(data)) {
		return nil, fmt.Errorf("%w: offset %d beyond page of %d bytes", ErrBadRange, off, len(data))
	}
	if length == wire.WholePage {
		return data[off:], nil
	}
	if uint64(off)+uint64(length) > uint64(len(data)) {
		return nil, fmt.Errorf("%w: [%d,+%d) beyond page of %d bytes", ErrBadRange, off, length, len(data))
	}
	return data[off : off+length], nil
}

// Mem is the in-memory Store: pages in a memkv.Map keyed by their raw
// 16-byte id. Construct with NewMem.
type Mem struct{ m *memkv.Map }

// NewMem returns an empty in-memory store.
func NewMem() *Mem { return &Mem{m: memkv.New()} }

// Put implements Store. Pages are immutable, so a second Put of an id
// is a no-op.
func (m *Mem) Put(id wire.PageID, data []byte) error {
	m.m.Put(id[:], data)
	return nil
}

// Get implements Store. The slice it returns aliases the stored page —
// serving a page from memory copies nothing — which is why Release
// must leave it alone.
func (m *Mem) Get(id wire.PageID, off, length uint32) ([]byte, error) {
	data, ok := m.m.Get(id[:])
	if !ok {
		return nil, fmt.Errorf("%w: %v", ErrNotFound, id)
	}
	return slicePage(data, off, length)
}

// Release implements Store by doing nothing: what Get returned is the
// stored page itself, and recycling it would let a later read of
// anything overwrite a page this store still serves.
func (*Mem) Release([]byte) {}

// Has implements Store.
func (m *Mem) Has(id wire.PageID) bool {
	_, ok := m.m.Get(id[:])
	return ok
}

// Delete implements Store.
func (m *Mem) Delete(id wire.PageID) error {
	m.m.Delete(id[:])
	return nil
}

// Metrics implements Store.
func (m *Mem) Metrics(s *obs.Sink) { m.m.Metrics(s) }

// Close implements Store.
func (m *Mem) Close() error { return nil }
