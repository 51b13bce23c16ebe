// Package wire defines the binary protocol spoken between BlobSeer
// processes: clients, data providers, the provider manager, metadata (DHT)
// providers and the version manager.
//
// Every message is a fixed-layout binary structure encoded with the helpers
// in this file. Integers are little-endian and fixed width; byte slices and
// strings are length-prefixed with a uint32. The framing layer (package rpc)
// prepends a frame header; this package is only concerned with message
// bodies and their type codes.
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

// ErrTooLarge is returned when a length prefix exceeds the remaining input
// or the configured maximum, which indicates a corrupt or hostile frame.
var ErrTooLarge = errors.New("wire: declared length too large")

// MaxSliceLen caps individual length-prefixed fields. It exists to bound
// allocations driven by untrusted length prefixes.
const MaxSliceLen = 1 << 30

// Writer accumulates an encoded message body. The zero value is ready to
// use; Bytes returns the accumulated encoding.
type Writer struct {
	buf []byte
}

// AppendMsg appends m's encoded body to buf in place — no intermediate
// buffer — and returns the extended slice. A caller that has made room
// for BodySize(m) bytes sees no regrowth however many pages m holds.
func AppendMsg(buf []byte, m Msg) []byte {
	w := WriterOn(buf)
	m.MarshalTo(&w)
	return w.buf
}

// WriterOn returns a Writer that appends to buf in place; Bytes returns
// the extended slice. It is a value, so an encoder that keeps it in a
// local allocates nothing of its own.
func WriterOn(buf []byte) Writer { return Writer{buf: buf} }

// NewWriter returns a Writer with capacity preallocated for n bytes.
func NewWriter(n int) *Writer {
	return &Writer{buf: make([]byte, 0, n)}
}

// Reset discards the accumulated encoding but keeps the allocation.
func (w *Writer) Reset() { w.buf = w.buf[:0] }

// Bytes returns the accumulated encoding. The slice aliases the Writer's
// internal buffer and is invalidated by further writes.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the number of bytes accumulated so far.
func (w *Writer) Len() int { return len(w.buf) }

// Uint8 appends a single byte.
func (w *Writer) Uint8(v uint8) { w.buf = append(w.buf, v) }

// Bool appends a boolean encoded as one byte (0 or 1).
func (w *Writer) Bool(v bool) {
	if v {
		w.Uint8(1)
	} else {
		w.Uint8(0)
	}
}

// Uint16 appends a little-endian uint16.
func (w *Writer) Uint16(v uint16) {
	w.buf = binary.LittleEndian.AppendUint16(w.buf, v)
}

// Uint32 appends a little-endian uint32.
func (w *Writer) Uint32(v uint32) {
	w.buf = binary.LittleEndian.AppendUint32(w.buf, v)
}

// Uint64 appends a little-endian uint64.
func (w *Writer) Uint64(v uint64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
}

// Bytes32 appends a uint32 length prefix followed by the raw bytes.
func (w *Writer) Bytes32(p []byte) {
	if len(p) > math.MaxUint32 {
		panic("wire: slice too large to encode")
	}
	w.Uint32(uint32(len(p)))
	w.buf = append(w.buf, p...)
}

// String appends a uint32 length prefix followed by the string bytes.
func (w *Writer) String(s string) {
	if len(s) > math.MaxUint32 {
		panic("wire: string too large to encode")
	}
	w.Uint32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// Raw appends p verbatim, with no length prefix.
func (w *Writer) Raw(p []byte) { w.buf = append(w.buf, p...) }

// Reader decodes a message body produced by Writer. Decoding methods
// record the first error encountered; callers may batch a sequence of
// reads and check Err once at the end.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a Reader over p. The Reader does not copy p.
func NewReader(p []byte) *Reader { return &Reader{buf: p} }

// Err returns the first decoding error encountered, if any.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of undecoded bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.buf) {
		r.fail(ErrTruncated)
		return nil
	}
	p := r.buf[r.off : r.off+n]
	r.off += n
	return p
}

// Uint8 decodes a single byte.
func (r *Reader) Uint8() uint8 {
	p := r.take(1)
	if p == nil {
		return 0
	}
	return p[0]
}

// Bool decodes a one-byte boolean.
func (r *Reader) Bool() bool { return r.Uint8() != 0 }

// Uint16 decodes a little-endian uint16.
func (r *Reader) Uint16() uint16 {
	p := r.take(2)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(p)
}

// Uint32 decodes a little-endian uint32.
func (r *Reader) Uint32() uint32 {
	p := r.take(4)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(p)
}

// Uint64 decodes a little-endian uint64.
func (r *Reader) Uint64() uint64 {
	p := r.take(8)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p)
}

// Bytes32 decodes a uint32-length-prefixed byte slice. The returned slice
// aliases the Reader's input, which the rpc layer recycles: a field
// decoded this way is valid only as long as the body it was decoded
// from (for a request, until its handler returns). Only PutPageReq.Data,
// DHTMultiPutReq's keys and values and DHTMultiGetReq's keys decode
// this way — the stores behind them copy what they keep, and a lookup
// keeps nothing; page payloads in responses use Bytes32Pooled and every
// other field uses Bytes32Copy.
func (r *Reader) Bytes32() []byte {
	n := r.Uint32()
	if r.err != nil {
		return nil
	}
	if n > MaxSliceLen || int(n) > r.Remaining() {
		r.fail(ErrTooLarge)
		return nil
	}
	return r.take(int(n))
}

// Bytes32Copy decodes a length-prefixed byte slice into fresh storage of
// exactly its length, owned by the decoded message: it outlives the
// input and may be retained (DHT values and keys, the small fields).
func (r *Reader) Bytes32Copy() []byte {
	p := r.Bytes32()
	if p == nil {
		return nil
	}
	out := make([]byte, len(p))
	copy(out, p)
	return out
}

// Bytes32Pooled decodes a length-prefixed byte slice into a buffer from
// bufpool.GetBytes; an empty field decodes as nil. Like Bytes32Copy it
// never aliases the input. The buffer belongs to whoever receives the
// decoded message, who either keeps it or hands it back once with
// bufpool.PutBytes after the last read of it — never both. Only page
// payloads decode this way (GetPageResp.Data, GetPagesResp.Data): the
// client's page cache recycles a page it evicts once no reader is
// copying out of it.
func (r *Reader) Bytes32Pooled() []byte {
	p := r.Bytes32()
	if len(p) == 0 {
		return nil
	}
	out := bufpool.GetBytes(len(p))
	copy(out, p)
	return out
}

// String decodes a uint32-length-prefixed string.
func (r *Reader) String() string {
	p := r.Bytes32()
	if p == nil {
		return ""
	}
	return string(p)
}

// Raw decodes n raw bytes with no length prefix.
func (r *Reader) Raw(n int) []byte { return r.take(n) }

// Finish reports an error if decoding failed or if undecoded bytes remain,
// which would indicate a protocol version mismatch.
func (r *Reader) Finish() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("wire: %d trailing bytes after message", len(r.buf)-r.off)
	}
	return nil
}
