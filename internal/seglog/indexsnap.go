package seglog

import (
	"fmt"

	"blobseer/internal/wire"
)

// A KV index snapshot (see kv_codec.go for the entry section) opens
// with this prefix: the format number and one entry per covered segment.
// Format v1 recorded only each covered segment's generation; v2 adds
// its live/tombstone byte counters:
//
//	uint32 fmt
//	uint32 nsegs
//	per segment: uint64 gen                          (v1)
//	             uint64 gen | uint64 live | uint64 tomb  (v2)
//
// v2 exists to fix a long-documented undercount: v1 snapshots carry
// only the live index, so a snapshot-seeded recovery had no way to
// recount tombstone bytes in covered segments and seeded tombBytes = 0.
// The undercount could only inflate the reclaim estimate — worst case
// one no-op rewrite of a tombstone-heavy segment per reopen — but with
// the counters persisted, recovery seeds the exact values and the
// compactor's victim selection stays accurate across reopens. Decoding
// preserves the input's format (HasMeta) and encoding reproduces it, so
// both formats round-trip canonically; a v1 snapshot loads fine and
// merely degrades to the old recompute-on-rewrite behaviour.

// SegMeta is one covered segment's entry in an index snapshot.
type SegMeta struct {
	Gen  uint64
	Live int64 // framed bytes of records the index points at (v2)
	Tomb int64 // framed bytes of tombstone records (v2)
}

// IndexMeta is the decoded shared prefix of an index snapshot.
type IndexMeta struct {
	HasMeta bool // true for v2: Live/Tomb are meaningful
	Segs    []SegMeta
}

// EncodeIndexMeta appends the shared prefix to w, as v2 when m.HasMeta.
func EncodeIndexMeta(w *wire.Writer, fmtV1, fmtV2 uint32, m *IndexMeta) {
	if m.HasMeta {
		w.Uint32(fmtV2)
	} else {
		w.Uint32(fmtV1)
	}
	w.Uint32(uint32(len(m.Segs)))
	for _, s := range m.Segs {
		w.Uint64(s.Gen)
		if m.HasMeta {
			w.Uint64(uint64(s.Live))
			w.Uint64(uint64(s.Tomb))
		}
	}
}

// DecodeIndexMeta parses the shared prefix from r, leaving r positioned
// at the store-specific entry section. errTag tags structural errors
// (each store wraps its own sentinel).
func DecodeIndexMeta(r *wire.Reader, fmtV1, fmtV2 uint32, errTag error) (*IndexMeta, error) {
	f := r.Uint32()
	if r.Err() == nil && f != fmtV1 && f != fmtV2 {
		return nil, fmt.Errorf("%w: unknown format %d", errTag, f)
	}
	m := &IndexMeta{HasMeta: f == fmtV2}
	elem := 8
	if m.HasMeta {
		elem = 24
	}
	nsegs, err := Count(r, elem, errTag)
	if err != nil {
		return nil, err
	}
	m.Segs = make([]SegMeta, 0, nsegs)
	for i := 0; i < nsegs; i++ {
		s := SegMeta{Gen: r.Uint64()}
		if m.HasMeta {
			s.Live = int64(r.Uint64())
			s.Tomb = int64(r.Uint64())
			if s.Live < 0 || s.Tomb < 0 {
				return nil, fmt.Errorf("%w: negative segment counter", errTag)
			}
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
