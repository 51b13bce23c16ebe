// Package wire defines the binary protocol spoken between BlobSeer
// processes: clients, data providers, the provider manager, metadata (DHT)
// providers and the version manager.
//
// Every message is a fixed-layout binary structure. Integers are
// little-endian and fixed width; byte slices and strings are
// length-prefixed with a uint32, and so is every repeated field. The
// framing layer (package rpc) prepends a frame header; this package is
// only concerned with message bodies and their type codes.
//
// Each format is written once, as a layout: a method that names every
// field, in order, through the field methods of a Codec, which either
// encodes the field or decodes into it. The same layout therefore
// serves both directions, and the other packages' durable formats (tree
// nodes, WAL events, snapshots) are written the same way.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"blobseer/internal/bufpool"
)

// ErrTruncated is returned when a message body ends before all declared
// fields could be decoded.
var ErrTruncated = errors.New("wire: truncated message")

// ErrTooLarge is returned when a length prefix or a count claims more
// than the remaining input could hold, which indicates a corrupt or
// hostile frame.
var ErrTooLarge = errors.New("wire: declared length too large")

// Codec is one pass of a layout over a body: encoding, each field method
// appends its field to the buffer; decoding, it reads the field from the
// buffer into the field it points at. Encoding only reads the fields.
// Decoding records the first error and from then on leaves the fields
// alone, so a layout checks Err, or Finish, once at the end.
//
// A Codec is a small value: a layout that keeps it in a local, or takes
// and returns it by value as Msg does, allocates nothing of its own.
type Codec struct {
	buf []byte
	off int
	err error
	dec bool
}

// EncodeTo returns a Codec that appends to buf in place; Encoded returns
// the extended slice.
func EncodeTo(buf []byte) Codec { return Codec{buf: buf} }

// DecodeFrom returns a Codec that decodes p. It does not copy p.
func DecodeFrom(p []byte) Codec { return Codec{buf: p, dec: true} }

// AppendMsg appends m's encoded body to buf in place — no intermediate
// buffer — and returns the extended slice. A caller that has made room
// for BodySize(m) bytes sees no regrowth however many pages m holds.
func AppendMsg(buf []byte, m Msg) []byte { return m.code(EncodeTo(buf)).buf }

// Decode decodes a message body of the given kind. The message owns
// every field it decodes except PutPageReq.Data, DHTMultiPutReq's keys
// and values and DHTMultiGetReq's keys, which alias body (BytesAlias):
// the requests whose handlers copy what they keep into storage of their
// own anyway, or keep nothing. A decoded GetPagesResp.Data[i] is a
// pooled buffer (BytesPooled) that aliases nothing: its receiver may
// keep it, or hand it back once with bufpool.PutBytes when nothing reads
// it any more. Decode keeps no reference to body once it has returned.
func Decode(k Kind, body []byte) (Msg, error) {
	m := New(k)
	if m == nil {
		return nil, fmt.Errorf("wire: unknown message kind %d", uint8(k))
	}
	c := m.code(DecodeFrom(body))
	if err := c.Finish(); err != nil {
		return nil, fmt.Errorf("wire: decoding %v: %w", k, err)
	}
	return m, nil
}

// Decoding reports whether c decodes.
func (c *Codec) Decoding() bool { return c.dec }

// Encoded returns the encoding accumulated so far.
func (c *Codec) Encoded() []byte { return c.buf }

// Err returns the first decoding error, if any.
func (c *Codec) Err() error { return c.err }

// Fail records err as the decoding error unless one is already recorded,
// for a layout that finds a decoded value invalid.
func (c *Codec) Fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// Finish reports the decoding error, or an error if undecoded bytes
// remain, which would indicate a protocol version mismatch.
func (c *Codec) Finish() error {
	if c.err != nil {
		return c.err
	}
	if c.dec && c.off != len(c.buf) {
		return fmt.Errorf("wire: %d trailing bytes after message", len(c.buf)-c.off)
	}
	return nil
}

// take consumes the next n bytes of the input, or fails and returns nil.
func (c *Codec) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n > len(c.buf)-c.off {
		c.Fail(ErrTruncated)
		return nil
	}
	p := c.buf[c.off : c.off+n]
	c.off += n
	return p
}

// Uint8 codes one byte.
func (c *Codec) Uint8(v *uint8) {
	if !c.dec {
		c.buf = append(c.buf, *v)
	} else if p := c.take(1); p != nil {
		*v = p[0]
	}
}

// Bool codes a boolean as one byte, 0 or 1; any other byte decodes as
// true.
func (c *Codec) Bool(v *bool) {
	if !c.dec {
		var b uint8
		if *v {
			b = 1
		}
		c.buf = append(c.buf, b)
	} else if p := c.take(1); p != nil {
		*v = p[0] != 0
	}
}

// Uint16 codes a little-endian uint16.
func (c *Codec) Uint16(v *uint16) {
	if !c.dec {
		c.buf = binary.LittleEndian.AppendUint16(c.buf, *v)
	} else if p := c.take(2); p != nil {
		*v = binary.LittleEndian.Uint16(p)
	}
}

// Uint32 codes a little-endian uint32.
func (c *Codec) Uint32(v *uint32) {
	if !c.dec {
		c.buf = binary.LittleEndian.AppendUint32(c.buf, *v)
	} else if p := c.take(4); p != nil {
		*v = binary.LittleEndian.Uint32(p)
	}
}

// Uint64 codes a little-endian uint64.
func (c *Codec) Uint64(v *uint64) {
	if !c.dec {
		c.buf = binary.LittleEndian.AppendUint64(c.buf, *v)
	} else if p := c.take(8); p != nil {
		*v = binary.LittleEndian.Uint64(p)
	}
}

// Int64 codes an int64 as the uint64 of its two's complement.
func (c *Codec) Int64(v *int64) {
	if !c.dec {
		c.buf = binary.LittleEndian.AppendUint64(c.buf, uint64(*v))
	} else if p := c.take(8); p != nil {
		*v = int64(binary.LittleEndian.Uint64(p))
	}
}

// Fixed codes len(p) raw bytes with no length prefix: a fixed-size
// field such as a PageID (p is its slice).
func (c *Codec) Fixed(p []byte) {
	if !c.dec {
		c.buf = append(c.buf, p...)
	} else if q := c.take(len(p)); q != nil {
		copy(p, q)
	}
}

// FixedString codes a string of exactly n raw bytes with no length
// prefix.
func (c *Codec) FixedString(s *string, n int) {
	if !c.dec {
		if len(*s) != n {
			panic(fmt.Sprintf("wire: fixed string of %d bytes, want %d", len(*s), n))
		}
		c.buf = append(c.buf, *s...)
	} else if q := c.take(n); q != nil {
		*s = string(q)
	}
}

// Len codes a count of n entries, each at least minEntryBytes (> 0)
// long once encoded, and returns it: encoding, n; decoding, the count
// read — refused with ErrTooLarge, and 0 returned, when that many
// entries could not fit in the remaining input. It is the one way a
// count is decoded, so no count can size an allocation past the input
// it came in.
func (c *Codec) Len(n, minEntryBytes int) int {
	if !c.dec {
		c.prefix(n)
		return n
	}
	var v uint32
	c.Uint32(&v)
	if c.err != nil {
		return 0
	}
	if int64(v)*int64(minEntryBytes) > int64(len(c.buf)-c.off) {
		c.Fail(ErrTooLarge)
		return 0
	}
	return int(v)
}

// Slice codes the count of *s through Len and returns it; decoding, it
// also makes *s that long, for the layout's loop to fill.
func Slice[T any](c *Codec, s *[]T, minEntryBytes int) int {
	n := c.Len(len(*s), minEntryBytes)
	if c.dec {
		*s = make([]T, n)
	}
	return n
}

// prefix appends a uint32 length prefix.
func (c *Codec) prefix(n int) {
	if n > math.MaxUint32 {
		panic("wire: field too large to encode")
	}
	c.buf = binary.LittleEndian.AppendUint32(c.buf, uint32(n))
}

// span decodes a uint32 length prefix and returns the bytes behind it,
// aliasing the input; nil on error.
func (c *Codec) span() []byte { return c.take(c.Len(0, 1)) }

// BytesAlias codes a length-prefixed byte slice that, decoded, aliases
// the input, which the rpc layer recycles: a field decoded this way is
// valid only as long as the body it was decoded from (for a request,
// until its handler returns). Only PutPageReq.Data and DHTMultiPutReq's
// and DHTMultiGetReq's keys — and DHTMultiPutReq's values — decode this
// way: the stores behind them copy what they keep, and a lookup keeps
// nothing.
func (c *Codec) BytesAlias(p *[]byte) {
	if !c.dec {
		c.prefix(len(*p))
		c.buf = append(c.buf, *p...)
	} else if q := c.span(); q != nil {
		*p = q
	}
}

// Bytes codes a length-prefixed byte slice that, decoded, is fresh
// storage of exactly its length, owned by the decoded message: it
// outlives the input and may be retained. Every byte field that is not
// BytesAlias or BytesPooled is coded this way.
func (c *Codec) Bytes(p *[]byte) {
	if !c.dec {
		c.BytesAlias(p)
	} else if q := c.span(); q != nil {
		*p = make([]byte, len(q))
		copy(*p, q)
	}
}

// BytesPooled codes a length-prefixed byte slice that, decoded, is a
// buffer from bufpool.GetBytes, or nil when empty. Like Bytes it never
// aliases the input. The buffer belongs to whoever receives the decoded
// message, who either keeps it or hands it back once with
// bufpool.PutBytes after the last read of it — never both. Only page
// payloads decode this way (GetPagesResp.Data): the client's page cache
// recycles a page it evicts once no reader is copying out of it.
func (c *Codec) BytesPooled(p *[]byte) {
	if !c.dec {
		c.BytesAlias(p)
	} else if q := c.span(); len(q) > 0 {
		*p = bufpool.GetBytes(len(q))
		copy(*p, q)
	}
}

// String codes a length-prefixed string.
func (c *Codec) String(s *string) {
	if !c.dec {
		c.prefix(len(*s))
		c.buf = append(c.buf, *s...)
	} else if q := c.span(); q != nil {
		*s = string(q)
	}
}
