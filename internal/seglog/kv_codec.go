package seglog

import (
	"encoding/binary"
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
// where a key is KeyLen raw bytes, or a uint32 length and that many
// bytes when KeyLen is zero. Both encodings are canonical — entries
// strictly ascending by key, counts bounded by the remaining input, no
// trailing bytes — so a successful decode re-encodes to exactly the
// input, which the fuzz targets pin for both key framings.

// record kinds.
const (
	kvPut  byte = 1
	kvTomb byte = 2
)

// index snapshot format numbers (see indexsnap.go for the v2 story).
const (
	kvSnapFmtV1 = 1
	kvSnapFmtV2 = 2
)

// keyFrame is the encoded size of a key of n bytes.
func (ly *KVLayout) keyFrame(n int) int {
	if ly.KeyLen != 0 {
		return n
	}
	return 4 + n
}

// framedSize is the framed size of a record — the unit of the
// live/tombstone byte accounting that drives victim selection.
func (ly *KVLayout) framedSize(keyLen int, vlen uint32) int64 {
	return int64(FrameHeaderSize+1+ly.keyFrame(keyLen)) + int64(vlen)
}

// appendRecord appends one record's complete frame to dst.
func (ly *KVLayout) appendRecord(dst []byte, kind byte, key string, value []byte) []byte {
	start := len(dst)
	dst = append(dst, make([]byte, FrameHeaderSize)...)
	dst = append(dst, kind)
	if ly.KeyLen == 0 {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(key)))
	}
	dst = append(dst, key...)
	dst = append(dst, value...)
	putFrameHeader(dst[start:], ly.RecMagic)
	return dst
}

func (ly *KVLayout) readKey(r *wire.Reader) string {
	if ly.KeyLen != 0 {
		return string(r.Raw(ly.KeyLen))
	}
	return r.String()
}

// decodeRecord parses a record payload; value aliases payload. It never
// panics on arbitrary bytes.
func (ly *KVLayout) decodeRecord(payload []byte) (kind byte, key string, value []byte, err error) {
	r := wire.NewReader(payload)
	kind = r.Uint8()
	key = ly.readKey(r)
	switch kind {
	case kvPut:
		value = r.Raw(r.Remaining())
	case kvTomb:
		// No value; trailing bytes are a corrupt frame.
	default:
		if r.Err() == nil {
			return 0, "", nil, fmt.Errorf("%s: unknown record kind %d", ly.Name, kind)
		}
	}
	if err := r.Finish(); err != nil {
		return 0, "", nil, fmt.Errorf("%s: decoding record: %w", ly.Name, err)
	}
	return kind, key, value, nil
}

// putKey extracts the key from (a prefix of) a put record's payload
// without decoding the rest; ok is false for tombstones and for a
// prefix too short to hold the key.
func (ly *KVLayout) putKey(p []byte) (key []byte, ok bool) {
	if len(p) < 1 || p[0] != kvPut {
		return nil, false
	}
	p = p[1:]
	n := ly.KeyLen
	if n == 0 {
		if len(p) < 4 {
			return nil, false
		}
		n = int(binary.LittleEndian.Uint32(p))
		p = p[4:]
	}
	if n < 0 || n > len(p) {
		return nil, false
	}
	return p[:n], true
}

// kvRecord is one record located by scan.
type kvRecord struct {
	kind    byte
	key     string
	payload []byte // the raw payload; a put's value is its last vlen bytes
	valOff  int64  // file offset of the value
	vlen    uint32
}

// framed is the record's size on disk.
func (r *kvRecord) framed() int64 { return int64(FrameHeaderSize + len(r.payload)) }

// scan reads every record of one open, header-validated segment file;
// see Format.Scan for the torn-tail rule and the returned size.
func (ly *KVLayout) scan(seg *kvSegment, path string, allowTorn bool, visit func(kvRecord) error) (int64, error) {
	return ly.Scan(seg.f, path, allowTorn, func(payload []byte, payloadOff int64) error {
		kind, key, value, err := ly.decodeRecord(payload)
		if err != nil {
			return fmt.Errorf("%s at offset %d: %w", path, payloadOff-FrameHeaderSize, err)
		}
		return visit(kvRecord{
			kind:    kind,
			key:     key,
			payload: payload,
			valOff:  payloadOff + int64(len(payload)-len(value)),
			vlen:    uint32(len(value)),
		})
	})
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
	meta    IndexMeta
	entries []kvSnapEntry
}

// encodeIndex serializes s canonically (it sorts the entries by key).
func (ly *KVLayout) encodeIndex(s *kvIndexSnapshot) []byte {
	sort.Slice(s.entries, func(i, j int) bool { return s.entries[i].key < s.entries[j].key })
	n := 16 + len(s.meta.Segs)*24
	for _, e := range s.entries {
		n += ly.keyFrame(len(e.key)) + 16
	}
	w := wire.NewWriter(n)
	EncodeIndexMeta(w, kvSnapFmtV1, kvSnapFmtV2, &s.meta)
	w.Uint32(uint32(len(s.entries)))
	for _, e := range s.entries {
		if ly.KeyLen != 0 {
			w.Raw([]byte(e.key))
		} else {
			w.String(e.key)
		}
		w.Uint32(e.seg)
		w.Uint64(uint64(e.off))
		w.Uint32(e.vlen)
	}
	return w.Bytes()
}

// errSnapshotEncoding tags structurally invalid snapshot payloads.
var errSnapshotEncoding = errors.New("invalid index snapshot encoding")

// decodeIndex parses a snapshot payload. It never panics on arbitrary
// bytes and rejects non-canonical input — unsorted or duplicate keys,
// entries pointing outside the covered segments or before the first
// possible value offset, trailing bytes — so a successful decode
// re-encodes to exactly the input (the decoded meta remembers whether
// the input was v1 or v2).
func (ly *KVLayout) decodeIndex(data []byte) (*kvIndexSnapshot, error) {
	r := wire.NewReader(data)
	meta, err := DecodeIndexMeta(r, kvSnapFmtV1, kvSnapFmtV2, errSnapshotEncoding)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", ly.Name, err)
	}
	s := &kvIndexSnapshot{meta: *meta}
	nent, err := Count(r, ly.keyFrame(ly.KeyLen)+16, errSnapshotEncoding)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", ly.Name, err)
	}
	s.entries = make([]kvSnapEntry, 0, nent)
	minOff := HeaderSize + ly.framedSize(ly.KeyLen, 0)
	for i := 0; i < nent; i++ {
		var e kvSnapEntry
		e.key = ly.readKey(r)
		e.seg = r.Uint32()
		e.off = int64(r.Uint64())
		e.vlen = r.Uint32()
		if r.Err() != nil {
			break
		}
		switch {
		case i > 0 && e.key <= s.entries[i-1].key:
			err = fmt.Errorf("keys not strictly ascending")
		case e.seg == 0 || int(e.seg) > len(s.meta.Segs):
			err = fmt.Errorf("entry in uncovered segment %d", e.seg)
		case e.off < minOff:
			err = fmt.Errorf("entry offset %d inside segment header", e.off)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w: %v", ly.Name, errSnapshotEncoding, err)
		}
		s.entries = append(s.entries, e)
	}
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("%s: decoding snapshot: %w", ly.Name, err)
	}
	return s, nil
}
