package version

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"

	"blobseer/internal/seglog"
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
	w := wire.NewWriter(256)
	w.Uint32(snapFormat)
	w.Uint64(s.nextSeg)
	w.Uint64(uint64(s.nextBlob))
	w.Uint32(uint32(len(s.blobs)))
	for _, b := range s.blobs {
		encodeBlobState(w, b)
	}
	return w.Bytes()
}

func encodeBlobState(w *wire.Writer, b *blobState) {
	w.Uint64(uint64(b.id))
	w.Uint32(b.pageSize)
	// Lineage order is semantic (youngest entry first) and deterministic
	// by construction, so it is stored verbatim, not sorted.
	w.Uint32(uint32(len(b.lineage)))
	for _, e := range b.lineage {
		w.Uint64(uint64(e.Blob))
		w.Uint64(e.MinVersion)
	}
	w.Uint64(uint64(b.next))
	w.Uint64(uint64(b.published))
	w.Uint64(uint64(b.readable))
	w.Uint64(b.pendingSize)
	w.Uint64(uint64(b.expireFloor))

	sizes := slices.Sorted(maps.Keys(b.sizes))
	w.Uint32(uint32(len(sizes)))
	for _, v := range sizes {
		w.Uint64(uint64(v))
		w.Uint64(b.sizes[v])
	}

	aborted := slices.Sorted(maps.Keys(b.aborted))
	w.Uint32(uint32(len(aborted)))
	for _, v := range aborted {
		w.Uint64(uint64(v))
	}

	inflight := slices.Sorted(maps.Keys(b.inflight))
	w.Uint32(uint32(len(inflight)))
	for _, v := range inflight {
		u := b.inflight[v]
		w.Uint64(uint64(v))
		w.Uint64(u.offset)
		w.Uint64(u.size)
		w.Uint64(u.newSize)
		w.Uint64(uint64(u.basePublished))
		var flags uint8
		if u.completed {
			flags |= snapInflightCompleted
		}
		if u.aborted {
			flags |= snapInflightAborted
		}
		w.Uint8(flags)
	}
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
	r := wire.NewReader(data)
	if f := r.Uint32(); r.Err() == nil && f != snapFormat {
		return nil, fmt.Errorf("%w: unknown format %d", errSnapshotEncoding, f)
	}
	s := &state{
		nextSeg:  r.Uint64(),
		nextBlob: wire.BlobID(r.Uint64()),
	}
	nblobs, err := seglog.Count(r, 8+4+4+5*8+3*4, errSnapshotEncoding)
	if err != nil {
		return nil, err
	}
	s.blobs = make([]*blobState, 0, nblobs)
	s.byID = make(map[wire.BlobID]*blobState, nblobs)
	for i := 0; i < nblobs; i++ {
		b, err := decodeBlobState(r)
		if err != nil {
			return nil, err
		}
		if i > 0 && b.id <= s.blobs[i-1].id {
			return nil, fmt.Errorf("%w: blob ids not strictly ascending", errSnapshotEncoding)
		}
		s.blobs = append(s.blobs, b)
		// A branch pins its branch point on the lineage owner of that
		// snapshot — an ancestor, so a smaller id, so already decoded.
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
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("version: decoding snapshot: %w", err)
	}
	return s, nil
}

func decodeBlobState(r *wire.Reader) (*blobState, error) {
	b := &blobState{
		id:       wire.BlobID(r.Uint64()),
		pageSize: r.Uint32(),
	}
	nlin, err := seglog.Count(r, 16, errSnapshotEncoding)
	if err != nil {
		return nil, err
	}
	b.lineage = make(wire.Lineage, 0, nlin)
	for i := 0; i < nlin; i++ {
		b.lineage = append(b.lineage, wire.LineageEntry{
			Blob:       wire.BlobID(r.Uint64()),
			MinVersion: r.Uint64(),
		})
	}
	b.next = wire.Version(r.Uint64())
	b.published = wire.Version(r.Uint64())
	b.readable = wire.Version(r.Uint64())
	b.pendingSize = r.Uint64()
	b.expireFloor = wire.Version(r.Uint64())

	nsizes, err := seglog.Count(r, 16, errSnapshotEncoding)
	if err != nil {
		return nil, err
	}
	b.sizes = make(map[wire.Version]uint64, nsizes)
	for i, prev := 0, wire.Version(0); i < nsizes; i++ {
		v := wire.Version(r.Uint64())
		if i > 0 && v <= prev {
			return nil, fmt.Errorf("%w: size versions not strictly ascending", errSnapshotEncoding)
		}
		prev = v
		b.sizes[v] = r.Uint64()
	}

	naborted, err := seglog.Count(r, 8, errSnapshotEncoding)
	if err != nil {
		return nil, err
	}
	b.aborted = make(map[wire.Version]bool, naborted)
	for i, prev := 0, wire.Version(0); i < naborted; i++ {
		v := wire.Version(r.Uint64())
		if i > 0 && v <= prev {
			return nil, fmt.Errorf("%w: aborted versions not strictly ascending", errSnapshotEncoding)
		}
		prev = v
		b.aborted[v] = true
	}

	ninflight, err := seglog.Count(r, 5*8+1, errSnapshotEncoding)
	if err != nil {
		return nil, err
	}
	b.inflight = make(map[wire.Version]*update, ninflight)
	for i, prev := 0, wire.Version(0); i < ninflight; i++ {
		v := wire.Version(r.Uint64())
		if i > 0 && v <= prev {
			return nil, fmt.Errorf("%w: in-flight versions not strictly ascending", errSnapshotEncoding)
		}
		prev = v
		u := &update{
			version:       v,
			offset:        r.Uint64(),
			size:          r.Uint64(),
			newSize:       r.Uint64(),
			basePublished: wire.Version(r.Uint64()),
		}
		flags := r.Uint8()
		if flags&^uint8(snapInflightCompleted|snapInflightAborted) != 0 {
			return nil, fmt.Errorf("%w: unknown in-flight flags %#x", errSnapshotEncoding, flags)
		}
		u.completed = flags&snapInflightCompleted != 0
		u.aborted = flags&snapInflightAborted != 0
		b.inflight[v] = u
	}
	if r.Err() != nil {
		return nil, fmt.Errorf("version: decoding snapshot blob: %w", r.Err())
	}
	return b, nil
}
