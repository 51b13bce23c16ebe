package seglog

import (
	"fmt"

	"blobseer/internal/wire"
)

// A KV index snapshot (see kv_codec.go for the entry section) opens
// with this prefix: the format number and one entry per covered segment,
// its generation and its live/tombstone byte counters:
//
//	uint32 fmt (kvSnapFmt)
//	uint32 nsegs
//	per segment: uint64 gen | uint64 live | uint64 tomb
//
// The counters are there because a snapshot carries only the live
// index: without them a snapshot-seeded recovery could not recount the
// tombstone bytes of covered segments, and the inflated reclaim estimate
// would cost a no-op rewrite of a tombstone-heavy segment per reopen. Any
// other format number — 1, which lacked the counters and which no KV
// writes, included — is an unknown format: the snapshot is ignored and
// the open rescans.

// segMeta is one covered segment's entry in an index snapshot.
type segMeta struct {
	Gen  uint64
	Live int64 // framed bytes of records the index points at
	Tomb int64 // framed bytes of tombstone records
}

// indexMeta is the decoded prefix of an index snapshot.
type indexMeta struct {
	Segs []segMeta
}

// encodeIndexMeta appends the prefix to w.
func encodeIndexMeta(w *wire.Writer, m *indexMeta) {
	w.Uint32(kvSnapFmt)
	w.Uint32(uint32(len(m.Segs)))
	for _, s := range m.Segs {
		w.Uint64(s.Gen)
		w.Uint64(uint64(s.Live))
		w.Uint64(uint64(s.Tomb))
	}
}

// decodeIndexMeta parses the prefix from r, leaving r positioned at the
// entry section.
func decodeIndexMeta(r *wire.Reader) (*indexMeta, error) {
	f := r.Uint32()
	if r.Err() == nil && f != kvSnapFmt {
		return nil, fmt.Errorf("%w: unknown format %d", errSnapshotEncoding, f)
	}
	nsegs, err := Count(r, 24, errSnapshotEncoding)
	if err != nil {
		return nil, err
	}
	m := &indexMeta{Segs: make([]segMeta, 0, nsegs)}
	for i := 0; i < nsegs; i++ {
		s := segMeta{Gen: r.Uint64(), Live: int64(r.Uint64()), Tomb: int64(r.Uint64())}
		if s.Live < 0 || s.Tomb < 0 {
			return nil, fmt.Errorf("%w: negative segment counter", errSnapshotEncoding)
		}
		m.Segs = append(m.Segs, s)
	}
	return m, nil
}

// Count reads a length prefix and bounds it by the bytes that many
// entries of at least elemBytes each would need, so a hostile prefix
// cannot drive a huge allocation.
func Count(r *wire.Reader, elemBytes int, errTag error) (int, error) {
	n := r.Uint32()
	if r.Err() != nil {
		return 0, r.Err()
	}
	if int64(n)*int64(elemBytes) > int64(r.Remaining()) {
		return 0, fmt.Errorf("%w: count %d exceeds remaining input", errTag, n)
	}
	return int(n), nil
}
