package core

import (
	"reflect"
	"testing"

	"blobseer/internal/wire"
)

// FuzzDecodeNode throws arbitrary bytes at the tree-node decoder, which
// parses the values metadata nodes hand back off the network, and pins:
// no panic; decode∘encode is a fixed point (not byte equality: a
// replicated-tag leaf with one provider re-encodes as the shorter
// single-provider tag); and EncodedLen sizes the encoding exactly.
func FuzzDecodeNode(f *testing.F) {
	page := wire.PageID{0xa, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 0xb}
	for _, n := range []Node{
		{VL: 3, VR: wire.NoVersion},
		{Leaf: true, Page: page, Providers: []string{"127.0.0.1:7000"}},
		{Leaf: true, Page: page, Providers: []string{"a:1", "b:2", "c:3"}},
	} {
		f.Add(n.AppendTo(nil))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		n, err := DecodeNode(data)
		if err != nil {
			return
		}
		enc := n.AppendTo(nil)
		if len(enc) != n.EncodedLen() {
			t.Fatalf("%+v: EncodedLen %d, encodes to %d bytes", n, n.EncodedLen(), len(enc))
		}
		n2, err := DecodeNode(enc)
		if err != nil {
			t.Fatalf("re-decoding %x, the encoding of %+v: %v", enc, n, err)
		}
		if !reflect.DeepEqual(n, n2) {
			t.Fatalf("decode∘encode not a fixed point: %+v became %+v", n, n2)
		}
	})
}
