package pagestore

import (
	"errors"
	"fmt"
	"time"

	"blobseer/internal/bufpool"
	"blobseer/internal/obs"
	"blobseer/internal/seglog"
	"blobseer/internal/vclock"
	"blobseer/internal/wire"
)

// Disk is the Store: pages in a seglog.KV, on disk or in RAM, keyed by
// their raw 16-byte id. Layout, recovery, snapshots and compaction are
// the KV's (see internal/seglog/kv.go, including the safety rule for
// space reclamation that Delete's contract feeds); this file only names
// the page store's instantiation and maps the Store contract onto it.
type Disk struct{ kv *seglog.KV }

// pageLayout is the page store's instantiation of the KV: its file
// magics, fixed 16-byte keys, and no flush beyond what DiskOptions.Sync
// asks for — with Sync off a sealed segment is not fsynced, at seal or
// at Close.
var pageLayout = &seglog.KVLayout{
	Format: seglog.Format{
		Name:      "pagestore",
		RecMagic:  0xB10B5EE5,
		SegMagic:  0xB10B5E60,
		SegFormat: 1,
		SnapMagic: 0xB10B55A9,
	},
	KeyLen: len(wire.PageID{}),
}

// DiskOptions tunes a Disk store; see the field docs on seglog.KVOptions.
type DiskOptions = seglog.KVOptions

// Open opens (creating if needed) the segmented page store rooted at
// path and rebuilds its index from the newest valid index snapshot plus
// the log tail; an empty path opens a fresh one in memory. Its
// maintenance passes run on sched, the owner's scheduler (nil: the real
// clock).
func Open(sched vclock.Scheduler, path string, opts DiskOptions) (*Disk, error) {
	kv, err := seglog.OpenKV(sched, path, pageLayout, opts)
	if err != nil {
		return nil, err
	}
	return &Disk{kv: kv}, nil
}

// Deprecated: use Open, with the owner's scheduler; kept only until
// internal/blast stops naming it.
func OpenDisk(path string, opts DiskOptions) (*Disk, error) { return Open(nil, path, opts) }

// Put implements Store.
func (d *Disk) Put(id wire.PageID, data []byte) error { return d.kv.Put(string(id[:]), data) }

// Get implements Store. The page is read into a buffer from the pool
// the rpc frames come from — sized from the index's hint, never from
// the request, and not taken at all for a page the index does not
// know — which Release hands back to that pool. When the read fails,
// Get hands it back itself. The read checks the page's id on its
// record with one pread of the id's 16 bytes, into the buffer, before
// the one that reads the page.
func (d *Disk) Get(id wire.PageID, off, length uint32) ([]byte, error) {
	key := string(id[:])
	var buf []byte
	if n, ok := d.kv.LenHint(id[:]); ok {
		buf = bufpool.GetBytes(int(min(n, length)))
	}
	data, err := d.kv.GetAppend(buf[:0], key, off, length)
	if err == nil {
		return data, nil
	}
	if buf != nil {
		bufpool.PutBytes(buf)
	}
	switch {
	case errors.Is(err, seglog.ErrNotFound):
		return nil, fmt.Errorf("%w: %v", ErrNotFound, id)
	case errors.Is(err, seglog.ErrBadRange):
		return nil, fmt.Errorf("%w: page %v: %v", ErrBadRange, id, err)
	}
	return nil, err
}

// Release implements Store: the buffer goes back to the pool.
func (d *Disk) Release(data []byte) { bufpool.PutBytes(data) }

// Delete implements Store: the tombstone is durable like a put, and the
// page's bytes become reclaimable by compaction.
func (d *Disk) Delete(id wire.PageID) error { return d.kv.Delete(string(id[:])) }

// Metrics implements Store: the page log's series.
func (d *Disk) Metrics(s *obs.Sink) { d.kv.Metrics(s) }

// Deprecated: read store_keys and store_value_bytes (Metrics); kept only
// until internal/blast stops naming it.
func (d *Disk) Stats() (pages, bytes uint64) {
	return uint64(obs.Value(d, "store_keys")), uint64(obs.Value(d, "store_value_bytes"))
}

// Deprecated: read store_log_bytes (Metrics); kept only until
// internal/blast stops naming it.
func (d *Disk) LogBytes() int64 { return int64(obs.Value(d, "store_log_bytes")) }

// Deprecated: read store_compactions_total (Metrics); kept only until
// internal/blast stops naming it.
func (d *Disk) Compactions() uint64 { return uint64(obs.Value(d, "store_compactions_total")) }

// Deprecated: always 0 — an index snapshot is a fold of sealed segments
// and stops nothing; kept only until internal/blast stops naming it.
func (d *Disk) LastCapturePause() time.Duration { return 0 }

// Compact rewrites every segment whose live-byte ratio is below
// CompactRatio (below 1 when that is zero) and that holds reclaimable
// bytes, dropping records of Deleted pages; the active segment is
// sealed first when it is one of them. The rewrites are covered by a
// fresh index snapshot when the store keeps one (SnapshotEvery, or a
// snapshot already on disk); otherwise reopen rescans.
func (d *Disk) Compact() error { return d.kv.Compact() }

// Close implements Store. It is idempotent.
func (d *Disk) Close() error { return d.kv.Close() }
