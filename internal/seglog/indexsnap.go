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

// code is the prefix's layout. Decoding, it leaves c positioned at the
// entry section.
func (m *indexMeta) code(c *wire.Codec) {
	format := uint32(kvSnapFmt)
	c.Uint32(&format)
	if format != kvSnapFmt {
		c.Fail(fmt.Errorf("%w: unknown format %d", errSnapshotEncoding, format))
		return
	}
	for i := range wire.Slice(c, &m.Segs, 24) {
		s := &m.Segs[i]
		c.Uint64(&s.Gen)
		c.Int64(&s.Live)
		c.Int64(&s.Tomb)
		if c.Decoding() && (s.Live < 0 || s.Tomb < 0) {
			c.Fail(fmt.Errorf("%w: negative segment counter", errSnapshotEncoding))
		}
	}
}
