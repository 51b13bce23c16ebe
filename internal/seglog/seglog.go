// Package seglog is the one segmented-log core behind the stores, and
// home of the one keyed store built on it.
//
// The core serves two kinds of log. The version manager's WAL
// (internal/version) is a state-machine log: it keeps its own record
// encoding, state and locking, its segments are headerless, and covered
// segments are deleted. KV (kv.go) is the keyed, deletable,
// snapshotting, compacting store that both the provider page store
// (internal/pagestore.Disk) and the metadata nodes' pair log
// (internal/dht) instantiate with nothing but a KVLayout — magics, a
// fixed key size (16-byte page ids, 33-byte tree-node keys) and a seal
// rule. The mechanics, each written once:
//
//   - a file seam (fs.go): a KV reaches its files only through a
//     fileSystem, the operating system's or a private one in RAM
//     (memfs.go), so a store in memory is the same log as one on disk
//   - generation-stamped segment files (<base>.000001, ...) with a fixed
//     header, or headerless segments for WAL-style logs whose covered
//     segments are deleted instead of rewritten
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
//   - snapshots as folds: neither store ever copies its live state to
//     persist it. The version WAL's checkpoint and the KV's index
//     snapshot each fold the sealed segments over the previous snapshot,
//     off the disk, with the function recovery runs (the KV's is
//     kv_recover.go's fold); the auto-snapshot countdown is records
//     logged since the published cut, so a failed publish retries on
//     the next maintenance pass
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
// The core primitives declare no lock order of their own: the Committer
// borrows its store's writer mutex, and the order is declared by the
// store that owns the locks (KV's is in kv.go). Functions that publish
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
	"sort"
	"strconv"
)

// Format names one store's on-disk dialect: the magics that brand its
// files and the prefix its errors carry. A zero SegMagic means the
// store's segments are headerless (the version WAL): they start with
// records at offset 0 and carry no generation.
type Format struct {
	Name      string // error prefix, e.g. "pagestore"
	RecMagic  uint32 // record frame magic
	SegMagic  uint32 // segment header magic; 0 = headerless segments
	SegFormat uint32 // segment header format number
	SnapMagic uint32 // snapshot file envelope magic
}

const (
	// HeaderSize is the segment file header:
	//
	//	uint32 SegMagic | uint32 SegFormat | uint64 generation
	HeaderSize = 4 + 4 + 8

	// FrameHeaderSize is the record frame header:
	//
	//	uint32 RecMagic | uint32 payloadLen | uint32 crc32(payload)
	FrameHeaderSize = 4 + 4 + 4
)

// DataStart is the file offset of the first record: past the header for
// generation-stamped segments, 0 for headerless ones.
func (ft *Format) DataStart() int64 {
	if ft.SegMagic == 0 {
		return 0
	}
	return HeaderSize
}

// SegmentPath names segment idx of the log rooted at base.
func SegmentPath(base string, idx uint64) string {
	return fmt.Sprintf("%s.%06d", base, idx)
}

// SnapshotPath names the live snapshot of the log rooted at base.
func SnapshotPath(base string) string { return base + ".snapshot" }

// SnapshotTmpPath names the in-progress snapshot; never read by recovery.
func SnapshotTmpPath(base string) string { return base + ".snapshot.tmp" }

// CompactTmpPath names an in-progress segment rewrite; never read by
// recovery.
func CompactTmpPath(base string) string { return base + ".compact.tmp" }

// removeTmp deletes leftover tmp files from interrupted maintenance.
// They are garbage by construction: only the atomic renames ever
// activate a tmp file.
func removeTmp(fsys fileSystem, base string) {
	fsys.Remove(SnapshotTmpPath(base))
	fsys.Remove(CompactTmpPath(base))
}

// ListSegments returns the segment indices present for base, ascending.
// Non-numeric siblings (the snapshot, tmp files) are ignored.
func (ft *Format) ListSegments(base string) ([]uint64, error) {
	return ft.listSegments(osFS{}, base)
}

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

// SyncDir fsyncs a directory so renames, creations and deletions in it
// are durable.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeHeader writes the segment header to a fresh segment file.
// Headerless formats must not call it.
func (ft *Format) writeHeader(f file, gen uint64) error {
	var hdr [HeaderSize]byte
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
	var hdr [HeaderSize]byte
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
