// Package a is golden input for the encdecpair analyzer.
package a

import "blobseer/internal/wire"

// Rec's layout is reached directly from FuzzDecode.
type Rec struct{ X uint8 }

func (r *Rec) code(c *wire.Codec) { c.Uint8(&r.X) }

// Hdr's layout is reached through decodeHdr, exercising transitive
// reachability.
type Hdr struct{ N uint32 }

func codeHdr(c *wire.Codec, h *Hdr) { c.Uint32(&h.N) }

func decodeHdr(p []byte) (Hdr, error) {
	var h Hdr
	c := wire.DecodeFrom(p)
	codeHdr(&c, &h)
	return h, c.Finish()
}

// Cold's layout takes its Codec by value, and nothing fuzzes it.
type Cold struct{ V uint64 }

func codeCold(c wire.Codec, v *Cold) wire.Codec { // want `codeCold takes a wire.Codec but no Fuzz\* target reaches it`
	c.Uint64(&v.V)
	return c
}

// EncodeCold encodes v; encoding alone is no reason to fuzz.
func EncodeCold(v Cold) []byte {
	c := codeCold(wire.EncodeTo(nil), &v)
	return c.Encoded()
}
