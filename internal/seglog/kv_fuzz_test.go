package seglog

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// The KV's decoders face bytes from disk, where a crash or disk fault
// can produce anything. The targets pin two properties per layout —
// 16-byte page ids, and the 33-byte tree-node keys the VarKey targets
// keep their historical names for (a -fuzz pattern must select exactly
// one target, hence the pairs):
// the decoders never panic on arbitrary input, and — because both
// encodings are canonical — a successful decode re-encodes to exactly
// the input.

func FuzzDecodeKVRecordFixed16(f *testing.F) { fuzzDecodeKVRecord(f, kvLayouts[0].ly) }
func FuzzDecodeKVRecordVarKey(f *testing.F)  { fuzzDecodeKVRecord(f, kvLayouts[1].ly) }
func FuzzDecodeKVIndexFixed16(f *testing.F)  { fuzzDecodeKVIndex(f, kvLayouts[0].ly) }
func FuzzDecodeKVIndexVarKey(f *testing.F)   { fuzzDecodeKVIndex(f, kvLayouts[1].ly) }

func fuzzDecodeKVRecord(f *testing.F, ly *KVLayout) {
	f.Add(ly.encodeRecord(kvPut, tkey(ly, 1), []byte("value"))[FrameHeaderSize:])
	f.Add(ly.encodeRecord(kvPut, tkey(ly, 2), nil)[FrameHeaderSize:])
	f.Add(ly.encodeRecord(kvTomb, tkey(ly, 3), nil)[FrameHeaderSize:])
	f.Add([]byte{})
	f.Add([]byte{99})
	f.Add([]byte{kvTomb, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		kind, key, value, err := ly.decodeRecord(data)
		// A rewrite locates a skimmed record from its kind+key prefix and
		// its length alone: that must accept, reject and report exactly
		// what the decode of the whole payload does.
		k2, key2, vlen, err2 := ly.decodeHead(data[:min(len(data), 1+ly.KeyLen)], len(data))
		if (err == nil) != (err2 == nil) || k2 != kind || key2 != key || vlen != len(value) {
			t.Fatalf("decodeHead(%x) = (%d, %x, %d, %v); decodeRecord says (%d, %x, %d, %v)",
				data, k2, key2, vlen, err2, kind, key, len(value), err)
		}
		if err != nil {
			return
		}
		frame := ly.encodeRecord(kind, key, value)
		if !bytes.Equal(frame[FrameHeaderSize:], data) {
			t.Fatalf("decode(%x) = (%d, %x, %x) re-encodes to %x", data, kind, key, value, frame[FrameHeaderSize:])
		}
		// The frame around the payload is what Scan accepts, and the key
		// peek agrees with the full decode.
		if want := ly.Frame(data); !bytes.Equal(frame, want) {
			t.Fatalf("frame %x, want %x", frame, want)
		}
		if k, ok := ly.putKey(data); ok != (kind == kvPut) || (ok && string(k) != key) {
			t.Fatalf("putKey(%x) = %x, %v; decode says kind %d key %x", data, k, ok, kind, key)
		}
	})
}

func fuzzDecodeKVIndex(f *testing.F, ly *KVLayout) {
	at := func(i int, seg uint32, off int64, vlen uint32) kvSnapEntry {
		return kvSnapEntry{key: tkey(ly, i), kvEntry: kvEntry{seg: seg, off: off, vlen: vlen}}
	}
	entries := []kvSnapEntry{at(1, 1, 45, 100), at(2, 3, 1<<20, 0), at(3, 2, 4096, 1<<16)}
	// What format 1 wrote for no segments, for three, and for three with
	// entries: nobody is on it, and each must be turned away (the open
	// then rescans, see TestKVCorruptSnapshotFallsBackToRescan).
	v1 := func(entries []kvSnapEntry, gens ...uint64) []byte {
		meta := indexMeta{Segs: make([]segMeta, len(gens))}
		return asFormat1(ly.encodeIndex(&kvIndexSnapshot{meta: meta, entries: entries}), gens...)
	}
	f.Add(v1(nil))
	f.Add(v1(nil, 1, 7, 3))
	f.Add(v1(entries, 1, 2, 9))
	f.Add(ly.encodeIndex(&kvIndexSnapshot{
		meta: indexMeta{Segs: []segMeta{
			{Gen: 1, Live: 129, Tomb: 29}, {Gen: 2}, {Gen: 9, Live: 0, Tomb: 58},
		}},
		entries: entries,
	}))
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0})
	f.Add([]byte{2, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ly.decodeIndex(data)
		if err != nil {
			return
		}
		if format := binary.LittleEndian.Uint32(data); format != kvSnapFmt {
			t.Fatalf("decoded a snapshot of format %d", format)
		}
		if !bytes.Equal(ly.encodeIndex(s), data) {
			t.Fatalf("snapshot decode of %d bytes re-encodes differently", len(data))
		}
		// Every decoded entry must be inside the covered segment range —
		// the invariant recovery relies on before touching files.
		for _, e := range s.entries {
			if e.seg == 0 || int(e.seg) > len(s.meta.Segs) {
				t.Fatalf("decoded entry in uncovered segment %d of %d", e.seg, len(s.meta.Segs))
			}
		}
	})
}
