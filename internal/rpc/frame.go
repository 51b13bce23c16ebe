// Package rpc implements the request/response messaging layer every
// BlobSeer service speaks. It multiplexes concurrent requests over shared
// connections, so a client needs only one connection per peer no matter
// how many goroutines are issuing calls.
//
// Framing: every message travels as
//
//	uint32 bodyLen | uint64 requestID | uint8 kind | body
//
// with little-endian integers. bodyLen counts only the body. Responses
// echo the requestID of their request; an ErrorResp may answer any
// request and is surfaced as *wire.Error.
//
// Buffer ownership: a page's bytes are allocated once, on the side that
// keeps them. Frames are marshalled in place into their destination
// buffer and every frame body read off a connection — plus every
// response frame a server builds — lives in a recycled buffer (see
// getFrame), released by exactly one owner:
//
//   - a response body, by the client's read loop right after
//     wire.Decode, on every exit of the iteration. Responses decode by
//     copy, so what a caller receives never aliases a recycled buffer.
//   - a request body, by the server's per-request goroutine once the
//     response is encoded (or on any earlier exit). A decoded
//     PutPageReq.Data, and a decoded DHTMultiPutReq's keys and values,
//     alias that body: a decoded request is valid until its handler
//     returns, and a handler that keeps request bytes copies them.
//   - a response frame, by the server right after it is written to the
//     connection.
package rpc

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"slices"
	"sync"

	"blobseer/internal/wire"
)

// frameHeaderLen is the fixed prefix before the message body.
const frameHeaderLen = 4 + 8 + 1

// MaxFrameBody bounds a single message body. Pages are at most a few MB;
// multi-put metadata batches stay well under this.
const MaxFrameBody = 64 << 20

// Recycled frame buffers come in power-of-two size classes from 1 KiB
// to 4 MiB. Anything larger is allocated for its one use and never
// pooled, so a 64 MiB frame cannot pin memory.
const (
	minFrameShift = 10
	maxFrameShift = 22
)

var framePools [maxFrameShift - minFrameShift + 1]sync.Pool

// poisonFrames makes putFrame overwrite every buffer it is handed, so a
// use after release reads garbage every time instead of only when the
// buffer happens to have been reused.
var poisonFrames bool

// PoisonReleasedFrames switches the poison mode on for the rest of the
// process. It is a test hook, called only from export_test.go files
// (this package's, and the root, provider and dht packages', whose
// tests check what a handler kept against it) before their first test
// starts — which is why a plain bool will do.
func PoisonReleasedFrames() { poisonFrames = true }

// getFrame returns a buffer of length n from the smallest class that
// holds it. The caller owns it until it passes the same pointer to
// putFrame; if it grows the slice, it stores the grown one back through
// the pointer first.
func getFrame(n int) *[]byte {
	if n > 1<<maxFrameShift {
		b := make([]byte, n)
		return &b
	}
	class := 0
	if n > 1<<minFrameShift {
		class = bits.Len(uint(n-1)) - minFrameShift
	}
	if p, _ := framePools[class].Get().(*[]byte); p != nil {
		*p = (*p)[:n]
		return p
	}
	b := make([]byte, n, 1<<(class+minFrameShift))
	return &b
}

// putFrame releases a buffer obtained from getFrame. It files the
// buffer under the largest class its capacity covers, and drops one
// that is smaller than the smallest class or larger than the largest.
func putFrame(p *[]byte) {
	b := (*p)[:cap(*p)]
	if poisonFrames && len(b) > 0 {
		b[0] = 0xDB
		for n := 1; n < len(b); n *= 2 {
			copy(b[n:], b[:n])
		}
	}
	if len(b) < 1<<minFrameShift || len(b) > 1<<maxFrameShift {
		return
	}
	framePools[bits.Len(uint(len(b)))-1-minFrameShift].Put(p)
}

// appendFrame marshals a complete frame in place onto buf and returns
// the result. Kinds that carry pages are sized first, so buf grows at
// most once. On error buf is returned at its original length.
func appendFrame(buf []byte, id uint64, m wire.Msg) ([]byte, error) {
	n := wire.BodySize(m)
	if n > MaxFrameBody {
		return buf, errOversize(m, n)
	}
	start := len(buf)
	out := slices.Grow(buf, frameHeaderLen+n)
	out = append(out, 0, 0, 0, 0) // body length placeholder
	out = binary.LittleEndian.AppendUint64(out, id)
	out = append(out, byte(m.Kind()))
	out = wire.AppendMsg(out, m)
	n = len(out) - start - frameHeaderLen
	if n > MaxFrameBody {
		return buf, errOversize(m, n)
	}
	binary.LittleEndian.PutUint32(out[start:], uint32(n))
	return out, nil
}

func errOversize(m wire.Msg, n int) error {
	return fmt.Errorf("rpc: %v body %d bytes exceeds limit", m.Kind(), n)
}

// readFrame reads one complete frame from r. The body is a recycled
// buffer the caller owns and must release with putFrame once nothing
// decoded from it by alias (see wire.PutPageReq) is in use.
func readFrame(r io.Reader) (id uint64, kind wire.Kind, body *[]byte, err error) {
	var hdr [frameHeaderLen]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if n > MaxFrameBody {
		return 0, 0, nil, fmt.Errorf("rpc: frame body %d bytes exceeds limit", n)
	}
	id = binary.LittleEndian.Uint64(hdr[4:12])
	kind = wire.Kind(hdr[12])
	body = getFrame(int(n))
	if _, err = io.ReadFull(r, *body); err != nil {
		putFrame(body)
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, 0, nil, err
	}
	return id, kind, body, nil
}
