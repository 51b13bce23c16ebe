// Package seglog is the one segmented-log core behind every store, and
// home of the two logs built on it; how any log lives on disk is decided
// here and nowhere else.
//
// The core serves two kinds of log. Log (log.go) is the state-machine
// log behind the version manager's WAL (internal/version): the owner
// keeps its record encoding, state and locking and hands over a Machine
// that folds them; its segments are headerless, and a checkpoint deletes
// the segments it covers. KV (kv.go) is the keyed, deletable,
// snapshotting, compacting store that both the provider page store
// (internal/pagestore.Disk) and the metadata nodes' pair log
// (internal/dht) instantiate with nothing but a KVLayout — magics, a
// fixed key size (16-byte page ids, 33-byte tree-node keys) and a seal
// rule. The mechanics, each written once:
//
//   - a file seam (fs.go): both logs reach their files only through a
//     fileSystem, the operating system's or a private one in RAM
//     (memfs.go), so a log in memory is the same log as one on disk
//   - segment files (<base>.000001, ...): the KV's generation-stamped
//     behind a fixed header, the Log's headerless; created, with their
//     directory entry synced, and committed into — one batch, one write,
//     at most one fsync, through a reused buffer — by the same code
//     (appender, createSegment)
//   - CRC-framed records with torn-tail truncation on the highest
//     segment only (a crash mid-append), and hard failure anywhere else
//     (sealed segments are only ever activated complete); a segment is
//     read through one reusable window, a pread per MiB, and a visitor
//     sees each payload as a slice of it, valid until it returns
//     (frame.go)
//   - snapshot files published by tmp + fsync + atomic rename + dirsync
//   - index snapshots that record each covered segment's generation —
//     and, since format v2, its live/tombstone byte counters — so
//     recovery detects post-snapshot compaction and seeds accurate
//     reclaim accounting (see indexsnap.go for the v2 story)
//   - leader/batch group commit with one-batch tenure and early lock
//     release: the leader runs the batch write+fsync holding no store
//     lock, and appends split into enqueue/await so callers can apply
//     under their own locks at enqueue time and ack after durability;
//     a snapshotter seals the active segment through the committer's
//     hand-off, never a wait for the queue to drain (commit.go)
//   - snapshots as folds: neither log ever copies its live state to
//     persist it. The Log's checkpoint and the KV's index snapshot each
//     fold the sealed segments over the previous snapshot, off the disk,
//     with the function its open runs; the countdown (appender) is the
//     records logged since the published cut, so a failed publish
//     retries on the next pass of the store's maintainer, all of which
//     start in one place (maintain.go)
//   - in-place segment rewrite as verified range copies, through a tmp
//     file that is always fsynced before the rename: pass 1 locates the
//     records and decides what survives without holding a byte of it
//     (a record past skimMin — a page — without reading its body at all;
//     the keys it read unverified are then held against the index's own
//     account of the segment's live bytes, so a live record cannot go
//     missing unseen; smaller records are read whole and verified); pass 2
//     reads the survivors that were adjacent in the old file in pieces
//     of whole frames, a window at most, checks every frame's magic,
//     length and CRC there — a rewrite must not launder a rotten record
//     into a fresh generation, which is why it is not a kernel-side file
//     copy — and writes each piece through a writer that buffers
//     nothing. The window is the store's, one per KV, shared by its
//     scans and its rewrites; the rewritten file is byte for byte what
//     re-framing every kept payload would produce (kv_maintain.go,
//     writer.go)
//   - generational tombstone hygiene for the compactor (hygiene.go)
//
// The core primitives declare no lock order of their own: the committer
// borrows its log's writer mutex, and the order is declared by the log
// that owns the locks (in kv.go and log.go). Functions that publish
// files via rename keep the whole sync→rename→dirsync sequence in a
// single function body so the renamesync analyzer (cmd/blobseer-vet)
// can see it; it reads the seam's Sync, Rename and SyncDir as the os
// calls they stand for.
package seglog

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"sync/atomic"
)

// Format names one store's on-disk dialect: the magics that brand its
// files and the prefix its errors carry. A zero SegMagic means the
// store's segments are headerless (a Log): they start with
// records at offset 0 and carry no generation.
type Format struct {
	Name      string // error prefix, e.g. "pagestore"
	RecMagic  uint32 // record frame magic
	SegMagic  uint32 // segment header magic; 0 = headerless segments
	SegFormat uint32 // segment header format number
	SnapMagic uint32 // snapshot file envelope magic
}

const (
	// headerSize is the segment file header:
	//
	//	uint32 SegMagic | uint32 SegFormat | uint64 generation
	headerSize = 4 + 4 + 8

	// FrameHeaderSize is the record frame header:
	//
	//	uint32 RecMagic | uint32 payloadLen | uint32 crc32(payload)
	FrameHeaderSize = 4 + 4 + 4
)

// dataStart is the file offset of the first record: past the header for
// generation-stamped segments, 0 for headerless ones.
func (ft *Format) dataStart() int64 {
	if ft.SegMagic == 0 {
		return 0
	}
	return headerSize
}

// SegmentPath names segment idx of the log rooted at base.
func SegmentPath(base string, idx uint64) string {
	return fmt.Sprintf("%s.%06d", base, idx)
}

// SnapshotPath names the live snapshot of the log rooted at base.
func SnapshotPath(base string) string { return base + ".snapshot" }

// SnapshotTmpPath names the in-progress snapshot; never read by recovery.
func SnapshotTmpPath(base string) string { return base + ".snapshot.tmp" }

// compactTmpPath names an in-progress segment rewrite; never read by
// recovery.
func compactTmpPath(base string) string { return base + ".compact.tmp" }

// removeTmp deletes leftover tmp files from interrupted maintenance.
// They are garbage by construction: only the atomic renames ever
// activate a tmp file.
func removeTmp(fsys fileSystem, base string) {
	fsys.Remove(SnapshotTmpPath(base))
	fsys.Remove(compactTmpPath(base))
}

// listSegments returns the segment indices present for base, ascending.
// Non-numeric siblings (the snapshot, tmp files) are ignored.
func (ft *Format) listSegments(fsys fileSystem, base string) ([]uint64, error) {
	names, err := fsys.List(filepath.Dir(base))
	if err != nil {
		return nil, fmt.Errorf("%s: list segments: %w", ft.Name, err)
	}
	prefix := filepath.Base(base) + "."
	var out []uint64
	for _, name := range names {
		if len(name) <= len(prefix) || name[:len(prefix)] != prefix {
			continue
		}
		idx, err := strconv.ParseUint(name[len(prefix):], 10, 64)
		if err != nil || idx == 0 {
			continue
		}
		out = append(out, idx)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// refuseSingleFile fails the open of a log whose base path is a file: a
// pre-segmentation log, which an empty log beside it would silently drop.
func (ft *Format) refuseSingleFile(fsys fileSystem, base string) error {
	f, err := fsys.OpenFile(base, 0)
	if err != nil {
		return nil
	}
	f.Close()
	return fmt.Errorf("%s: %s is a pre-segmentation single-file log, unsupported", ft.Name, base)
}

// createSegment creates (or opens) the segment file at path and, when
// sync, makes its directory entry durable before any record commits
// into it — or a crash could lose a whole synced segment while keeping
// its successor.
func (ft *Format) createSegment(fsys fileSystem, path string, sync bool) (file, error) {
	f, err := fsys.OpenFile(path, os.O_CREATE)
	if err != nil {
		return nil, fmt.Errorf("%s: create segment: %w", ft.Name, err)
	}
	if sync {
		if err := fsys.SyncDir(filepath.Dir(path)); err != nil {
			f.Close()
			return nil, fmt.Errorf("%s: sync dir: %w", ft.Name, err)
		}
	}
	return f, nil
}

// appender is what the KV and the Log keep alike on the commit side:
// the batch buffer (the exclusive committer's), the counts of records
// appended and fsyncs issued, and the automatic snapshot's countdown —
// the records logged (appended, or replayed by the open past the
// snapshot) beyond those the published snapshot covers.
type appender struct {
	batchBuf []byte
	appends  atomic.Uint64
	syncs    atomic.Uint64
	replayed uint64
	covered  atomic.Uint64
}

// frameBuf counts a batch of records and returns the batch buffer,
// emptied, with room for the n bytes they frame to.
func (a *appender) frameBuf(records, n int) []byte {
	a.appends.Add(uint64(records))
	return slices.Grow(a.batchBuf[:0], n)
}

// writeBatch appends out, a framed batch, at offset off of f with a
// single write and, when sync, one fsync, and keeps out as the batch
// buffer unless it grew past kvBatchRetain. Called by the exclusive
// committer; on error the batch is not durable.
func (a *appender) writeBatch(ft *Format, f file, off int64, out []byte, sync bool) error {
	if cap(out) <= kvBatchRetain {
		a.batchBuf = out
	} else {
		a.batchBuf = nil
	}
	if _, err := f.WriteAt(out, off); err != nil {
		return fmt.Errorf("%s: append: %w", ft.Name, err)
	}
	if sync {
		if err := f.Sync(); err != nil {
			return fmt.Errorf("%s: fsync: %w", ft.Name, err)
		}
		a.syncs.Add(1)
	}
	return nil
}

// logged counts the records logged since open — appended, or replayed
// at open; exact when no commit is in flight, as under a seal.
func (a *appender) logged() uint64 { return a.appends.Load() + a.replayed }

// uncovered is the countdown. Replayed records count, or a store that
// crash-loops short of the interval would grow its tail without bound.
func (a *appender) uncovered() uint64 {
	covered := a.covered.Load() // first: a seal after it only raises appends
	return a.logged() - covered
}

// due reports whether a snapshot every n records (none when n is not
// positive) is due.
func (a *appender) due(n int) bool { return n > 0 && a.uncovered() >= uint64(n) }

// writeHeader writes the segment header to a fresh segment file.
// Headerless formats must not call it.
func (ft *Format) writeHeader(f file, gen uint64) error {
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], ft.SegMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], ft.SegFormat)
	binary.LittleEndian.PutUint64(hdr[8:16], gen)
	if _, err := f.WriteAt(hdr[:], 0); err != nil {
		return fmt.Errorf("%s: write segment header: %w", ft.Name, err)
	}
	return nil
}

// readHeader validates a segment file's header and returns its
// generation.
func (ft *Format) readHeader(f file, path string) (uint64, error) {
	var hdr [headerSize]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		return 0, fmt.Errorf("%s: read segment header of %s: %w", ft.Name, path, err)
	}
	if binary.LittleEndian.Uint32(hdr[0:4]) != ft.SegMagic {
		return 0, fmt.Errorf("%s: bad segment magic in %s", ft.Name, path)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != ft.SegFormat {
		return 0, fmt.Errorf("%s: unknown segment format %d in %s", ft.Name, v, path)
	}
	return binary.LittleEndian.Uint64(hdr[8:16]), nil
}
