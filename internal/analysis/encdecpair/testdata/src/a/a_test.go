package a

import (
	"testing"

	"blobseer/internal/wire"
)

func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var r Rec
		c := wire.DecodeFrom(data)
		r.code(&c)
		decodeHdr(data)
	})
}
