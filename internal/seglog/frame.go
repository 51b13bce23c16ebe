package seglog

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
)

// Record frame (little-endian), shared by every store:
//
//	uint32 RecMagic | uint32 payloadLen | uint32 crc32(payload) | payload
//
// The payload encoding is the store's business; this file only frames,
// walks and truncates.

// Frame wraps an encoded payload in the on-disk frame.
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

// Scan reads every record frame in one segment file, already open (and,
// for header-carrying formats, already validated). visit receives each
// CRC-checked payload and its file offset. A torn frame at the tail is
// truncated away when allowTorn is set (the highest segment — a crash
// mid-append); anywhere else it fails the open, because sealed segments
// and compaction outputs are only ever activated complete. The file
// size after any truncation is returned.
//
//blobseer:seglog scan-segment
func (ft *Format) Scan(f *os.File, path string, allowTorn bool, visit func(payload []byte, payloadOff int64) error) (int64, error) {
	info, err := f.Stat()
	if err != nil {
		return 0, fmt.Errorf("%s: stat segment: %w", ft.Name, err)
	}
	logLen := info.Size()
	off := ft.DataStart()
	var hdr [FrameHeaderSize]byte
	for off < logLen {
		if logLen-off < FrameHeaderSize {
			break // torn header
		}
		if _, err := f.ReadAt(hdr[:], off); err != nil {
			return 0, fmt.Errorf("%s: read record header at %d: %w", ft.Name, off, err)
		}
		if binary.LittleEndian.Uint32(hdr[0:4]) != ft.RecMagic {
			return 0, fmt.Errorf("%s: bad record magic in %s at offset %d: log corrupted", ft.Name, path, off)
		}
		payloadLen := binary.LittleEndian.Uint32(hdr[4:8])
		wantCRC := binary.LittleEndian.Uint32(hdr[8:12])
		payloadOff := off + FrameHeaderSize
		if payloadOff+int64(payloadLen) > logLen {
			break // torn payload
		}
		payload := make([]byte, payloadLen)
		if _, err := f.ReadAt(payload, payloadOff); err != nil {
			return 0, fmt.Errorf("%s: read record payload at %d: %w", ft.Name, payloadOff, err)
		}
		if crc32.ChecksumIEEE(payload) != wantCRC {
			return 0, fmt.Errorf("%s: record crc mismatch in %s at offset %d: log corrupted", ft.Name, path, off)
		}
		if err := visit(payload, payloadOff); err != nil {
			return 0, err
		}
		off = payloadOff + int64(payloadLen)
	}
	if off < logLen {
		if !allowTorn {
			return 0, fmt.Errorf("%s: torn record in sealed segment %s: log corrupted", ft.Name, path)
		}
		if err := f.Truncate(off); err != nil {
			return 0, fmt.Errorf("%s: truncate torn tail: %w", ft.Name, err)
		}
	}
	return off, nil
}

// ScanPrefix walks a sealed segment reading only the first prefixLen
// payload bytes of each record — enough for a kind byte and a key —
// without the payload CRC check (the full bytes are not read). It
// exists for the compactor's tombstone-hygiene sweep, where earlier
// segments are consulted for key presence only and reading every page
// body would make the sweep cost the whole store. A torn frame fails:
// sealed segments are complete by invariant.
func (ft *Format) ScanPrefix(f *os.File, path string, prefixLen int, visit func(prefix []byte, payloadLen uint32) error) error {
	info, err := f.Stat()
	if err != nil {
		return fmt.Errorf("%s: stat segment: %w", ft.Name, err)
	}
	logLen := info.Size()
	off := ft.DataStart()
	var hdr [FrameHeaderSize]byte
	buf := make([]byte, prefixLen)
	for off < logLen {
		if logLen-off < FrameHeaderSize {
			return fmt.Errorf("%s: torn record in sealed segment %s: log corrupted", ft.Name, path)
		}
		if _, err := f.ReadAt(hdr[:], off); err != nil {
			return fmt.Errorf("%s: read record header at %d: %w", ft.Name, off, err)
		}
		if binary.LittleEndian.Uint32(hdr[0:4]) != ft.RecMagic {
			return fmt.Errorf("%s: bad record magic in %s at offset %d: log corrupted", ft.Name, path, off)
		}
		payloadLen := binary.LittleEndian.Uint32(hdr[4:8])
		payloadOff := off + FrameHeaderSize
		if payloadOff+int64(payloadLen) > logLen {
			return fmt.Errorf("%s: torn record in sealed segment %s: log corrupted", ft.Name, path)
		}
		n := prefixLen
		if int64(n) > int64(payloadLen) {
			n = int(payloadLen)
		}
		if n > 0 {
			if _, err := f.ReadAt(buf[:n], payloadOff); err != nil {
				return fmt.Errorf("%s: read record prefix at %d: %w", ft.Name, payloadOff, err)
			}
		}
		if err := visit(buf[:n], payloadLen); err != nil {
			return err
		}
		off = payloadOff + int64(payloadLen)
	}
	return nil
}
