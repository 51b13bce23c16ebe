package seglog

import (
	"fmt"
	"os"
	"path/filepath"
)

// SegmentWriter builds a replacement segment file — a compaction
// rewrite — in a tmp path and activates it by atomic rename. The tmp file is ALWAYS fsynced before the rename, even
// for stores that do not sync appends: the rename replaces previously
// durable data, so the replacement must itself be durable first.
type SegmentWriter struct {
	ft      *Format
	f       *os.File
	tmp     string
	buf     []byte
	off     int64 // logical end offset (header + appended frames)
	flushed int64 // bytes written through to the file
}

// NewSegmentWriter creates the tmp file and, for header-carrying
// formats, stamps it with gen.
func (ft *Format) NewSegmentWriter(tmp string, gen uint64) (*SegmentWriter, error) {
	f, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("%s: create segment tmp: %w", ft.Name, err)
	}
	w := &SegmentWriter{ft: ft, f: f, tmp: tmp, buf: make([]byte, 0, 1<<16)}
	if ft.SegMagic != 0 {
		if err := ft.WriteHeader(f, gen); err != nil {
			f.Close()
			return nil, err
		}
	}
	w.off = ft.DataStart()
	w.flushed = w.off
	return w, nil
}

// Append buffers one framed record and returns the file offset its
// frame will start at. Writes go to the file in 1 MB batches.
func (w *SegmentWriter) Append(frame []byte) (int64, error) {
	start := w.off
	w.buf = append(w.buf, frame...)
	w.off += int64(len(frame))
	if len(w.buf) >= 1<<20 {
		if err := w.flush(); err != nil {
			return 0, err
		}
	}
	return start, nil
}

func (w *SegmentWriter) flush() error {
	if len(w.buf) == 0 {
		return nil
	}
	if _, err := w.f.WriteAt(w.buf, w.flushed); err != nil {
		return fmt.Errorf("%s: write segment tmp: %w", w.ft.Name, err)
	}
	w.flushed += int64(len(w.buf))
	w.buf = w.buf[:0]
	return nil
}

// Size reports the logical size of the segment built so far.
func (w *SegmentWriter) Size() int64 { return w.off }

// File exposes the underlying handle after a successful Commit, for
// stores that keep serving reads from the renamed file.
func (w *SegmentWriter) File() *os.File { return w.f }

// Commit makes the built segment live: flush, fsync, the written hook
// (a crash-injection point; may be nil), atomic rename onto path, a
// directory sync, and the renamed hook (may be nil). On success the
// file handle stays open (see File); on any error it is closed and the
// caller abandons the rewrite — a leftover tmp is removed by the next
// recovery.
//
//blobseer:seglog rewrite-commit
func (w *SegmentWriter) Commit(path string, written, renamed func() error) error {
	if err := w.flush(); err != nil {
		w.f.Close()
		return err
	}
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return fmt.Errorf("%s: sync segment tmp: %w", w.ft.Name, err)
	}
	if written != nil {
		if err := written(); err != nil {
			w.f.Close()
			return err
		}
	}
	if err := os.Rename(w.tmp, path); err != nil {
		w.f.Close()
		return fmt.Errorf("%s: activate rewritten segment: %w", w.ft.Name, err)
	}
	if err := SyncDir(filepath.Dir(path)); err != nil {
		w.f.Close()
		return fmt.Errorf("%s: sync dir after rewrite: %w", w.ft.Name, err)
	}
	if renamed != nil {
		if err := renamed(); err != nil {
			w.f.Close()
			return err
		}
	}
	return nil
}

// Abort discards an unfinished rewrite: the handle closes and the tmp
// file, never activated, is garbage the next recovery removes.
func (w *SegmentWriter) Abort() { w.f.Close() }
