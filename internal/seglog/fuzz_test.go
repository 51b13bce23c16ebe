package seglog

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"blobseer/internal/wire"
)

// The shared codecs face bytes from disk, where a crash or disk fault
// can produce anything. The targets pin the same two properties every
// store's decoders pin: never panic on arbitrary input, and — because
// the encodings are canonical — a successful decode re-encodes to
// exactly the consumed input.

// v1IndexMeta is the prefix as format 1 wrote it — generations only. No
// KV writes it any more and the decoder must turn it away.
func v1IndexMeta(gens ...uint64) []byte {
	p := binary.LittleEndian.AppendUint32(nil, 1)
	p = binary.LittleEndian.AppendUint32(p, uint32(len(gens)))
	for _, g := range gens {
		p = binary.LittleEndian.AppendUint64(p, g)
	}
	return p
}

// asFormat1 is a snapshot payload covering len(gens) segments as format
// 1 would have written it: the prefix swapped, the entry section kept.
func asFormat1(payload []byte, gens ...uint64) []byte {
	return append(v1IndexMeta(gens...), payload[8+24*len(gens):]...)
}

func FuzzDecodeIndexMeta(f *testing.F) {
	seed := func(m *indexMeta) []byte {
		c := wire.EncodeTo(nil)
		m.code(&c)
		return c.Encoded()
	}
	f.Add(v1IndexMeta())
	f.Add(v1IndexMeta(1, 7, 3))
	f.Add(seed(&indexMeta{Segs: []segMeta{
		{Gen: 1, Live: 211, Tomb: 42},
		{Gen: 2},
		{Gen: 9, Live: 0, Tomb: 63},
	}}))
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0})
	f.Add([]byte{2, 0, 0, 0})
	f.Add([]byte{3, 0, 0, 0, 1, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		m := new(indexMeta)
		c := wire.DecodeFrom(data)
		if m.code(&c); c.Err() != nil {
			return
		}
		if binary.LittleEndian.Uint32(data) != kvSnapFmt {
			t.Fatalf("decoded a prefix of format %d", binary.LittleEndian.Uint32(data))
		}
		consumed := data[:8+24*len(m.Segs)]
		if enc := seed(m); !bytes.Equal(enc, consumed) {
			t.Fatalf("decode of %x re-encodes to %x", consumed, enc)
		}
		// The counters are validated non-negative on the way in.
		for _, s := range m.Segs {
			if s.Live < 0 || s.Tomb < 0 {
				t.Fatalf("decoded negative counter: %+v", s)
			}
		}
	})
}

// FuzzScan throws arbitrary file contents at the frame walker (as the
// highest, torn-tolerant segment) and pins: no panic, and whatever
// survives the truncating scan is a sealed-clean segment — a second,
// strict scan visits exactly the same payloads.
func FuzzScan(f *testing.F) {
	valid := append(testWALFmt.Frame([]byte("ev-1")), testWALFmt.Frame([]byte("ev-2"))...)
	f.Add(valid)
	f.Add(valid[:len(valid)-3]) // torn tail
	f.Add([]byte{})
	f.Add([]byte{0xDE, 0xC0, 0x57, 0x7E, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "seg.000001")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		fh, err := os.OpenFile(path, os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer fh.Close()
		var first [][]byte
		end, err := testWALFmt.scan(fh, path, true, func(p []byte, _ int64) error {
			first = append(first, append([]byte(nil), p...))
			return nil
		})
		if err != nil {
			return // corrupt, rejected — fine
		}
		var second [][]byte
		end2, err := testWALFmt.scan(fh, path, false, func(p []byte, _ int64) error {
			second = append(second, append([]byte(nil), p...))
			return nil
		})
		if err != nil {
			t.Fatalf("segment sealed by truncating scan fails strict rescan: %v", err)
		}
		if end != end2 || len(first) != len(second) {
			t.Fatalf("rescan disagrees: %d/%d records, end %d/%d", len(first), len(second), end, end2)
		}
		for i := range first {
			if !bytes.Equal(first[i], second[i]) {
				t.Fatalf("record %d differs across rescans", i)
			}
		}
		// The walk that skims sees the same records: their lengths, all of
		// a short one, and of a long one as much of its front as it asks
		// for — less than most records hold, and more.
		for _, prefixLen := range []int{3, 20} {
			n := 0
			end3, _, err := testWALFmt.scanFrames(new([]byte), osFile{fh}, path, false, prefixLen, func(p []byte, _ int64, payloadLen uint32) error {
				if n >= len(first) {
					return nil
				}
				want := first[n]
				if FrameHeaderSize+len(want) > skimMin {
					want = want[:min(prefixLen, len(want))]
				}
				if int(payloadLen) != len(first[n]) || !bytes.Equal(p, want) {
					t.Fatalf("record %d: skimming walk saw %x of %d bytes, scan saw %x", n, p, payloadLen, first[n])
				}
				n++
				return nil
			})
			if err != nil || end3 != end || n != len(first) {
				t.Fatalf("skimming walk: %d/%d records, end %d/%d, %v", n, len(first), end3, end, err)
			}
		}
	})
}
