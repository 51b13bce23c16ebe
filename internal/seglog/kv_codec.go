package seglog

import (
	"errors"
	"fmt"
	"sort"

	"blobseer/internal/wire"
)

// On-disk formats of a KV. Segment files carry the 16-byte header and
// the record frames of seglog.go/frame.go; the record payload is
//
//	uint8 kind | key | value          (value only for puts)
//
// and the index snapshot payload — the index at a segment boundary,
// carrying no values: they stay in their segments, the snapshot only
// spares reopen the full rescan — is the shared prefix of indexsnap.go
// followed by
//
//	uint32 nentries
//	per entry: key | uint32 seg | uint64 off | uint32 vlen
//
// where a key is always KeyLen raw bytes. Both encodings are canonical —
// entries strictly ascending by key, counts bounded by the remaining
// input, no trailing bytes — so a successful decode re-encodes to
// exactly the input, which the fuzz targets pin for both layouts.

// record kinds.
const (
	kvPut  byte = 1
	kvTomb byte = 2
)

// kvSnapFmt is the index snapshot format number (see indexsnap.go).
const kvSnapFmt = 2

// framedSize is the framed size of a record with a vlen-byte value (0
// for a tombstone) — the unit of the live/tombstone byte accounting that
// drives victim selection.
func (ly *KVLayout) framedSize(vlen uint32) int64 {
	return int64(FrameHeaderSize+1+ly.KeyLen) + int64(vlen)
}

// appendRecord appends one record's complete frame to dst.
func (ly *KVLayout) appendRecord(dst []byte, kind byte, key string, value []byte) []byte {
	return appendRecord(ly, dst, kind, key, value)
}

// appendRecord is KVLayout.appendRecord for a key of either form: the
// committer frames a batch's keys from the callers' own bytes.
func appendRecord[K keyBytes](ly *KVLayout, dst []byte, kind byte, key K, value []byte) []byte {
	start := len(dst)
	dst = append(dst, make([]byte, FrameHeaderSize)...)
	dst = append(dst, kind)
	dst = append(dst, key...)
	dst = append(dst, value...)
	putFrameHeader(dst[start:], ly.RecMagic)
	return dst
}

// decodeHead parses the front of a record payload: p is at least the
// kind and the key of a payload that is payloadLen bytes long in all.
// It returns the kind, the key and the length of the value behind them
// (zero for a tombstone), and never panics on arbitrary bytes. The
// bytes past the key are not looked at, so the compactor can locate a
// record from its prefix alone.
func (ly *KVLayout) decodeHead(p []byte, payloadLen int) (kind byte, key string, vlen int, err error) {
	c := wire.DecodeFrom(p)
	c.Uint8(&kind)
	c.FixedString(&key, ly.KeyLen)
	if err := c.Err(); err != nil {
		return 0, "", 0, fmt.Errorf("%s: decoding record: %w", ly.Name, err)
	}
	vlen = payloadLen - 1 - ly.KeyLen
	switch {
	case kind != kvPut && kind != kvTomb:
		return 0, "", 0, fmt.Errorf("%s: unknown record kind %d", ly.Name, kind)
	case kind == kvTomb && vlen != 0: // no value; trailing bytes are a corrupt frame
		return 0, "", 0, fmt.Errorf("%s: decoding record: %d bytes behind a tombstone's key", ly.Name, vlen)
	}
	return kind, key, vlen, nil
}

// putKey extracts the key from (a prefix of) a put record's payload
// without decoding the rest; ok is false for tombstones and for a
// prefix too short to hold the key.
func (ly *KVLayout) putKey(p []byte) (key []byte, ok bool) {
	if len(p) < 1+ly.KeyLen || p[0] != kvPut {
		return nil, false
	}
	return p[1 : 1+ly.KeyLen], true
}

// kvRecord is one record located in a segment file. It carries no
// bytes of the record: a put's value is the vlen bytes at valOff, the
// last of the payload.
type kvRecord struct {
	kind   byte
	key    string
	valOff int64 // file offset of the value (of the frame's end, for a tombstone)
	vlen   uint32
	plen   uint32 // payload length
}

// framed is the record's size on disk.
func (r *kvRecord) framed() int64 { return FrameHeaderSize + int64(r.plen) }

// frameOff is the file offset the record's frame starts at.
func (r *kvRecord) frameOff() int64 { return r.valOff + int64(r.vlen) - r.framed() }

// locating adapts visit to scanFrames: it builds the kvRecord of each
// payload — payloadLen bytes at payloadOff, of which p is the front,
// the key at least — and hands that on.
func (ly *KVLayout) locating(path string, visit func(kvRecord) error) frameVisitor {
	return func(p []byte, payloadOff int64, payloadLen uint32) error {
		kind, key, vlen, err := ly.decodeHead(p, int(payloadLen))
		if err != nil {
			return fmt.Errorf("%s at offset %d: %w", path, payloadOff-FrameHeaderSize, err)
		}
		valOff := payloadOff + int64(payloadLen) - int64(vlen)
		return visit(kvRecord{kind: kind, key: key, valOff: valOff, vlen: uint32(vlen), plen: payloadLen})
	}
}

// scan locates every record of one open, header-validated segment file,
// reading — and CRC-checking — all of it through win; see Format.Scan
// for the torn-tail rule and the returned size.
func (ly *KVLayout) scan(win *[]byte, seg *kvSegment, path string, allowTorn bool, visit func(kvRecord) error) (int64, error) {
	size, _, err := ly.scanFrames(win, seg.f, path, allowTorn, -1, ly.locating(path, visit))
	return size, err
}

// walk visits the front of every record of a sealed segment — the kind
// and the key at least — for the compactor, which locates records by
// key and wants no values: its tombstone-hygiene sweep consults earlier
// segments for key presence only, and the first pass of a rewrite
// decides what survives before reading any of it. It skims by size
// (scanFrames): of a record longer than skimMin — a page — only the kind
// and the key are read, unchecked, so the bodies of the pages a rewrite
// drops are never read at all; the ones it keeps it checks when it
// copies them, and KV.checkLocated is what makes it safe to take their
// keys on trust. A shorter record — a tree node, any tombstone — is read
// whole through the window and CRC-checked, which costs less than a
// pread per record would. skimmed reports whether any record was
// skimmed.
func (ly *KVLayout) walk(win *[]byte, seg *kvSegment, path string, visit frameVisitor) (skimmed bool, err error) {
	_, skimmed, err = ly.scanFrames(win, seg.f, path, false, 1+ly.KeyLen, visit)
	return skimmed, err
}

// kvSnapEntry pairs a key with its location, the unit of the snapshot
// encoding.
type kvSnapEntry struct {
	key string
	kvEntry
}

// kvIndexSnapshot is a consistent cut of the index. Segments
// 1..len(meta.Segs) are covered: every record in them is reflected in
// the entries, and meta.Segs[i] describes segment i+1 at the cut.
// Segments above the covered range are the tail recovery replays.
type kvIndexSnapshot struct {
	meta    indexMeta
	entries []kvSnapEntry
}

// encodeIndex serializes s canonically (it sorts the entries by key).
func (ly *KVLayout) encodeIndex(s *kvIndexSnapshot) []byte {
	sort.Slice(s.entries, func(i, j int) bool { return s.entries[i].key < s.entries[j].key })
	n := 16 + len(s.meta.Segs)*24
	n += len(s.entries) * (ly.KeyLen + 16)
	c := wire.EncodeTo(make([]byte, 0, n))
	ly.codeIndex(&c, s)
	return c.Encoded()
}

// errSnapshotEncoding tags structurally invalid snapshot payloads.
var errSnapshotEncoding = errors.New("invalid index snapshot encoding")

// decodeIndex parses a snapshot payload. It never panics on arbitrary
// bytes and rejects non-canonical input — unsorted or duplicate keys,
// entries pointing outside the covered segments or before the first
// possible value offset, trailing bytes — so a successful decode
// re-encodes to exactly the input.
func (ly *KVLayout) decodeIndex(data []byte) (*kvIndexSnapshot, error) {
	s := new(kvIndexSnapshot)
	c := wire.DecodeFrom(data)
	ly.codeIndex(&c, s)
	if err := c.Finish(); err != nil {
		return nil, fmt.Errorf("%s: decoding snapshot: %w", ly.Name, err)
	}
	return s, nil
}

// codeIndex is the snapshot's layout: the prefix, then the entries.
func (ly *KVLayout) codeIndex(c *wire.Codec, s *kvIndexSnapshot) {
	s.meta.code(c)
	minOff := headerSize + ly.framedSize(0)
	for i := range wire.Slice(c, &s.entries, ly.KeyLen+16) {
		e := &s.entries[i]
		c.FixedString(&e.key, ly.KeyLen)
		c.Uint32(&e.seg)
		c.Int64(&e.off)
		c.Uint32(&e.vlen)
		if !c.Decoding() || c.Err() != nil {
			continue
		}
		switch {
		case i > 0 && e.key <= s.entries[i-1].key:
			c.Fail(fmt.Errorf("%w: keys not strictly ascending", errSnapshotEncoding))
		case e.seg == 0 || int(e.seg) > len(s.meta.Segs):
			c.Fail(fmt.Errorf("%w: entry in uncovered segment %d", errSnapshotEncoding, e.seg))
		case e.off < minOff:
			c.Fail(fmt.Errorf("%w: entry offset %d inside segment header", errSnapshotEncoding, e.off))
		}
	}
}
