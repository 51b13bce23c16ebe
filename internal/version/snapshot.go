package version

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"

	"blobseer/internal/wire"
)

// A snapshot is the full version state — blob registry, per-blob state
// machines, published sizes, aborted versions, in-flight updates,
// lineages — serialized at a segment boundary of the write-ahead log.
// Recovery loads the newest valid snapshot and folds only the segments
// at or above state.nextSeg over it; everything below it is garbage and
// is deleted by the checkpoint. seglog.Log frames the payload below with
// snapMagic and publishes it by atomic rename (see wal.go).
//
// The encoding is canonical: blobs ascend by id, map entries ascend by
// key, and the decoder rejects anything unsorted, duplicated, or
// trailing. That makes encode∘decode the identity on valid inputs — the
// property FuzzDecodeSnapshot pins.

const (
	snapMagic = 0x5EE55AA7
	// Format 2 added the retention floor per blob and the assign-time
	// published base per in-flight update. Format 1 snapshots are
	// refused (the open falls back to full segment replay when one is
	// still covered by segments; a compacted format-1 log needs the
	// previous binary to finish a checkpoint first).
	snapFormat = 2

	// update flag bits in the in-flight encoding.
	snapInflightCompleted = 1
	snapInflightAborted   = 2
)

// state is the version state as of a segment boundary of the log: what a
// snapshot file holds, and what recovery and the checkpointer fold the
// segments from nextSeg on into (walMachine). The live manager keeps
// the same blobStates in its shards, nowhere else.
type state struct {
	nextSeg  uint64      // first WAL segment NOT folded into this state
	nextBlob wire.BlobID // highest blob id created so far
	blobs    []*blobState
	// byID indexes blobs for the fold; built by the first lookup.
	byID map[wire.BlobID]*blobState
}

// lookup and insert make a state the blobTable a fold applies events to.
func (s *state) lookup(id wire.BlobID) *blobState {
	if s.byID == nil {
		s.byID = make(map[wire.BlobID]*blobState, len(s.blobs))
		for _, b := range s.blobs {
			s.byID[b.id] = b
		}
	}
	return s.byID[id]
}

func (s *state) insert(b *blobState) {
	s.blobs = append(s.blobs, b)
	s.byID[b.id] = b // transition looked the id up before creating it
	if b.id > s.nextBlob {
		s.nextBlob = b.id
	}
}

// encodeSnapshot serializes s canonically (blobs sorted by id). The
// in-flight updates' assignedAt is deliberately not stored: it is a
// restart-relative sweeper timestamp, and the sweeper counts an update
// assigned before its incarnation from that incarnation's start — which
// also makes snapshots of identical logical state byte-identical, the
// invariant the crash-injection tests assert.
func encodeSnapshot(s *state) []byte {
	sort.Slice(s.blobs, func(i, j int) bool { return s.blobs[i].id < s.blobs[j].id })
	c := wire.EncodeTo(make([]byte, 0, 256))
	s.code(&c)
	return c.Encoded()
}

// errSnapshotEncoding tags structurally invalid snapshot payloads.
var errSnapshotEncoding = errors.New("version: invalid snapshot encoding")

// decodeSnapshot parses a snapshot payload. It never panics on arbitrary
// bytes (FuzzDecodeSnapshot pins this) and rejects non-canonical input —
// unsorted or duplicate keys, unknown flags, trailing bytes — so a
// successful decode re-encodes to exactly the input. In-flight updates
// come back with assignedAt zero, and the branch pins, which the
// encoding leaves to the lineages, are derived here: a decoded state is
// complete.
func decodeSnapshot(data []byte) (*state, error) {
	s := &state{}
	c := wire.DecodeFrom(data)
	s.code(&c)
	if err := c.Finish(); err != nil {
		return nil, fmt.Errorf("version: decoding snapshot: %w", err)
	}
	s.byID = make(map[wire.BlobID]*blobState, len(s.blobs))
	for i, b := range s.blobs {
		if i > 0 && b.id <= s.blobs[i-1].id {
			return nil, fmt.Errorf("%w: blob ids not strictly ascending", errSnapshotEncoding)
		}
		// A branch pins its branch point on the lineage owner of that
		// snapshot — an ancestor, so a smaller id, so already indexed.
		if len(b.lineage) > 1 {
			if owner := s.byID[b.lineage[1].Blob]; owner != nil {
				if owner.pins == nil {
					owner.pins = make(map[wire.BlobID]wire.Version)
				}
				owner.pins[b.id] = b.lineage[0].MinVersion - 1
			}
		}
		s.byID[b.id] = b
	}
	return s, nil
}

// code is the snapshot's layout: the format, the state's counters and
// every blob.
func (s *state) code(c *wire.Codec) {
	format := uint32(snapFormat)
	c.Uint32(&format)
	if format != snapFormat {
		c.Fail(fmt.Errorf("%w: unknown format %d", errSnapshotEncoding, format))
		return
	}
	c.Uint64(&s.nextSeg)
	c.Uint64((*uint64)(&s.nextBlob))
	for i := range wire.Slice(c, &s.blobs, 8+4+4+5*8+3*4) {
		if c.Decoding() {
			s.blobs[i] = new(blobState)
		}
		s.blobs[i].code(c)
	}
}

// code is one blob's layout.
func (b *blobState) code(c *wire.Codec) {
	c.Uint64((*uint64)(&b.id))
	c.Uint32(&b.pageSize)
	// Lineage order is semantic (youngest entry first) and deterministic
	// by construction, so it is stored verbatim, not sorted.
	for i := range wire.Slice(c, (*[]wire.LineageEntry)(&b.lineage), 16) {
		b.lineage[i].Code(c)
	}
	c.Uint64(&b.next)
	c.Uint64(&b.published)
	c.Uint64(&b.readable)
	c.Uint64(&b.pendingSize)
	c.Uint64(&b.expireFloor)
	codeVersions(c, &b.sizes, 8, "size", func(c *wire.Codec, _ wire.Version, size *uint64) {
		c.Uint64(size)
	})
	codeVersions(c, &b.aborted, 0, "aborted", func(_ *wire.Codec, _ wire.Version, aborted *bool) {
		*aborted = true
	})
	codeVersions(c, &b.inflight, 4*8+1, "in-flight", func(c *wire.Codec, v wire.Version, p **update) {
		if c.Decoding() {
			*p = &update{version: v}
		}
		u := *p
		c.Uint64(&u.offset)
		c.Uint64(&u.size)
		c.Uint64(&u.newSize)
		c.Uint64(&u.basePublished)
		var flags uint8
		if u.completed {
			flags |= snapInflightCompleted
		}
		if u.aborted {
			flags |= snapInflightAborted
		}
		c.Uint8(&flags)
		if c.Decoding() {
			if flags&^uint8(snapInflightCompleted|snapInflightAborted) != 0 {
				c.Fail(fmt.Errorf("%w: unknown in-flight flags %#x", errSnapshotEncoding, flags))
			}
			u.completed = flags&snapInflightCompleted != 0
			u.aborted = flags&snapInflightAborted != 0
		}
	})
}

// codeVersions is the layout of one of a blob's version-keyed maps: a
// count, then per entry its version and what entry codes, canonically —
// encoding sorts the versions, and decoding refuses them in any other
// order than strictly ascending.
func codeVersions[V any](c *wire.Codec, m *map[wire.Version]V, entryBytes int, what string, entry func(c *wire.Codec, v wire.Version, val *V)) {
	var versions []wire.Version
	if !c.Decoding() {
		versions = slices.Sorted(maps.Keys(*m))
	}
	n := c.Len(len(versions), 8+entryBytes)
	if c.Decoding() {
		*m = make(map[wire.Version]V, n)
	}
	var prev wire.Version
	for i := range n {
		var v wire.Version
		var val V
		if !c.Decoding() {
			v = versions[i]
			val = (*m)[v]
		}
		c.Uint64(&v)
		entry(c, v, &val)
		if c.Decoding() {
			if i > 0 && v <= prev {
				c.Fail(fmt.Errorf("%w: %s versions not strictly ascending", errSnapshotEncoding, what))
			}
			(*m)[v] = val
		}
		prev = v
	}
}
