package seglog

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
)

// Record frame (little-endian), shared by every store:
//
//	uint32 RecMagic | uint32 payloadLen | uint32 crc32(payload) | payload
//
// The payload encoding is the store's business; this file only frames,
// walks, verifies and truncates.

// ioWindow is how much of a segment one pread brings in when a segment
// is scanned or rewritten. A record larger than this is read whole.
const ioWindow = 1 << 20

// skimMin is the frame size past which a walk that wants only each
// record's front skims it: a page is, a tree node or a tombstone is read
// whole (see scanFrames).
const skimMin = 1 << 10

// resize returns a buffer of length n, its contents unspecified: *win
// itself when that is large enough, else a fresh one, which replaces
// *win unless it is larger than kvBatchRetain — one huge record must not
// pin a window of its size forever.
func resize(win *[]byte, n int) []byte {
	if cap(*win) >= n {
		return (*win)[:n]
	}
	buf := make([]byte, n)
	if n <= kvBatchRetain {
		*win = buf
	}
	return buf
}

// Frame wraps an encoded payload in the on-disk frame, in a buffer of
// its own — for logs that frame one record at a time (the version WAL).
func (ft *Format) Frame(payload []byte) []byte {
	rec := make([]byte, FrameHeaderSize+len(payload))
	copy(rec[FrameHeaderSize:], payload)
	putFrameHeader(rec, ft.RecMagic)
	return rec
}

// putFrameHeader fills the header of a frame whose payload is already
// in place behind it.
func putFrameHeader(frame []byte, magic uint32) {
	payload := frame[FrameHeaderSize:]
	binary.LittleEndian.PutUint32(frame[0:4], magic)
	binary.LittleEndian.PutUint32(frame[4:8], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[8:12], crc32.ChecksumIEEE(payload))
}

// corrupted is the error for a record that fails a check, at frame
// offset off of the segment file at path.
func (ft *Format) corrupted(what, path string, off int64) error {
	return fmt.Errorf("%s: %s in %s at offset %d: log corrupted", ft.Name, what, path, off)
}

// checkFrame verifies one complete frame that was read from offset off
// of the segment file at path: its magic, that its header announces
// exactly the payload behind it, and the payload's CRC.
func (ft *Format) checkFrame(frame []byte, path string, off int64) error {
	switch payload := frame[FrameHeaderSize:]; {
	case binary.LittleEndian.Uint32(frame[0:4]) != ft.RecMagic:
		return ft.corrupted("bad record magic", path, off)
	case binary.LittleEndian.Uint32(frame[4:8]) != uint32(len(payload)):
		return ft.corrupted("record length mismatch", path, off)
	case binary.LittleEndian.Uint32(frame[8:12]) != crc32.ChecksumIEEE(payload):
		return ft.corrupted("record crc mismatch", path, off)
	}
	return nil
}

// frameVisitor is what scanFrames calls for each record: p is the front
// of the record's payload, or all of it, of the payloadLen bytes that
// start at file offset payloadOff. p is valid until the call returns.
type frameVisitor = func(p []byte, payloadOff int64, payloadLen uint32) error

// Scan reads every record frame in one segment file, already open (and,
// for header-carrying formats, already validated). visit receives each
// CRC-checked payload and its file offset. A torn frame at the tail is
// truncated away when allowTorn is set (the highest segment — a crash
// mid-append); anywhere else it fails the open, because sealed segments
// and compaction outputs are only ever activated complete. The file
// size after any truncation is returned.
//
// The file is read through one window, a pread per ioWindow bytes, and
// payload is a slice of that window: it is valid until visit returns,
// and a visitor that keeps any of it must copy. Scan's window is its
// own; a KV lends its scans the store's (see scanFrames).
func (ft *Format) Scan(f *os.File, path string, allowTorn bool, visit func(payload []byte, payloadOff int64) error) (int64, error) {
	size, _, err := ft.scanFrames(new([]byte), osFile{f}, path, allowTorn, -1, func(payload []byte, payloadOff int64, _ uint32) error {
		return visit(payload, payloadOff)
	})
	return size, err
}

// scanFrames is Scan through the caller's window — resized as needed,
// left with the caller for its next scan — and, with prefixLen >= 0, the
// walk that skims: of a frame longer than skimMin, visit gets only the
// first prefixLen bytes of the payload beside the payload's length, one
// small pread, and nothing behind the prefix is read or CRC-checked
// (KVLayout.walk says who wants that, and why). A frame no longer than
// skimMin is read whole through the window and checked like any other.
// The read after a skimmed frame is prefix-sized, the read after a whole
// one window-sized, so a run of pages costs a pread each and a run of
// small records one pread per window. skimmed reports whether any frame
// was skimmed.
func (ft *Format) scanFrames(win *[]byte, f file, path string, allowTorn bool, prefixLen int, visit frameVisitor) (size int64, skimmed bool, err error) {
	logLen, err := f.Size()
	if err != nil {
		return 0, false, fmt.Errorf("%s: stat segment: %w", ft.Name, err)
	}
	off := ft.DataStart()
	// A pread brings in a step: a window, or where pages are likely — at
	// the start of a skimming walk, and behind a skimmed frame — a prefix.
	prefix, step := int64(math.MaxInt64), int64(ioWindow)
	if prefixLen >= 0 {
		prefix = FrameHeaderSize + int64(prefixLen)
		step = prefix
	}
	// have is the part of the window not yet consumed: the file's bytes
	// [off, off+len(have)). need refills it from off, a step at least,
	// once it holds fewer than n bytes; n never reaches past logLen.
	var have []byte
	need := func(n int64) error {
		if int64(len(have)) >= n {
			return nil
		}
		have = resize(win, int(min(max(n, step), logLen-off)))
		_, err := f.ReadAt(have, off)
		return err
	}
	for off < logLen {
		if logLen-off < FrameHeaderSize {
			break // torn header
		}
		if err := need(FrameHeaderSize); err != nil {
			return 0, false, fmt.Errorf("%s: read record header at %d: %w", ft.Name, off, err)
		}
		if binary.LittleEndian.Uint32(have[0:4]) != ft.RecMagic {
			return 0, false, ft.corrupted("bad record magic", path, off)
		}
		framed := FrameHeaderSize + int64(binary.LittleEndian.Uint32(have[4:8]))
		if off+framed > logLen {
			break // torn payload
		}
		// Of a long frame only the prefix is wanted; of any other, all of it.
		end := framed
		step = ioWindow
		if framed > skimMin && prefix < framed {
			end, step = prefix, prefix
		}
		if err := need(end); err != nil {
			return 0, false, fmt.Errorf("%s: read record payload at %d: %w", ft.Name, off+FrameHeaderSize, err)
		}
		if end == framed { // all of the frame is in hand
			if err := ft.checkFrame(have[:framed], path, off); err != nil {
				return 0, false, err
			}
		} else {
			skimmed = true
		}
		if err := visit(have[FrameHeaderSize:end], off+FrameHeaderSize, uint32(framed-FrameHeaderSize)); err != nil {
			return 0, false, err
		}
		have = have[min(framed, int64(len(have))):]
		off += framed
	}
	if off < logLen {
		if !allowTorn {
			return 0, false, fmt.Errorf("%s: torn record in sealed segment %s: log corrupted", ft.Name, path)
		}
		if err := f.Truncate(off); err != nil {
			return 0, false, fmt.Errorf("%s: truncate torn tail: %w", ft.Name, err)
		}
	}
	return off, skimmed, nil
}
