// Package pagestore implements the storage engine behind a data
// provider. A page is an immutable blob of bytes identified by a globally
// unique PageID; BlobSeer never overwrites a page in place (§3 of the
// paper), which keeps the engine interface small: put, ranged get, has.
//
// The engine is Disk, internal/seglog's keyed store keyed by page id:
// durable when opened with a path (an extension beyond the paper), else
// the same log in RAM, the paper's RAM-resident prototype.
package pagestore

import (
	"errors"

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
