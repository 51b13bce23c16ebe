// Package rpc implements the request/response messaging layer every
// BlobSeer service speaks. It multiplexes concurrent requests over shared
// connections, so a client needs only one connection per peer no matter
// how many goroutines are issuing calls. A call's only deadline is its
// context's, and it covers the dial too; the client adds none of its
// own.
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
// response frame a server builds, every page a durable store reads for
// a GET and every page a client decodes — lives in a recycled buffer
// (internal/bufpool), released by exactly one owner:
//
//   - a response body, by the client's read loop right after
//     wire.Decode — or undecoded, when the caller has given up — on
//     every exit of the iteration. Responses decode by copy, so what a
//     caller receives never aliases a recycled buffer.
//   - a decoded page (GetPageResp.Data, GetPagesResp.Data[i]), by the
//     caller that received it: the page is copied into a buffer of its
//     own from the same pool, which the caller either keeps or hands
//     back once with bufpool.PutBytes when nothing reads it any more.
//     The client's read path recycles a page right after its copy-out,
//     and its page cache recycles an evicted page once the last reader
//     copying out of it lets go.
//   - a request body, by the server's per-request goroutine once the
//     response is encoded (or on any earlier exit). A decoded
//     PutPageReq.Data, a decoded DHTMultiPutReq's keys and values and a
//     decoded DHTMultiGetReq's keys alias that body: a decoded request
//     is valid until its handler returns, and a handler that keeps
//     request bytes copies them.
//   - a response's borrowed buffers — what a handler's response says it
//     holds on loan (see Borrower; the data provider's GET_PAGE and
//     GET_PAGES answers carry pages lent by pagestore.Store.Get, a
//     metadata node's DHT_MULTI_GET answer the buffer its engine read
//     its values into) — by the server's per-request
//     goroutine once the response is framed, beside the request body.
//   - a response frame, by the server right after it is written to the
//     connection.
package rpc

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"blobseer/internal/bufpool"
	"blobseer/internal/wire"
)

// frameHeaderLen is the fixed prefix before the message body.
const frameHeaderLen = 4 + 8 + 1

// MaxFrameBody bounds a single message body. Pages are at most a few MB;
// multi-put metadata batches stay well under this.
const MaxFrameBody = 64 << 20

// PoisonReleasedFrames makes every buffer released to the shared pool
// (internal/bufpool: frame bodies, response frames and the pages a
// durable store lends a GET) be overwritten on release, for the rest of
// the process. It is a test hook, called only from export_test.go files
// (this package's, and the root, provider and dht packages', whose
// tests check what a handler kept against it) before their first test
// starts.
func PoisonReleasedFrames() { bufpool.PoisonReleased() }

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
// buffer the caller owns and must release with bufpool.Put once nothing
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
	body = bufpool.Get(int(n))
	if _, err = io.ReadFull(r, *body); err != nil {
		bufpool.Put(body)
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, 0, nil, err
	}
	return id, kind, body, nil
}
