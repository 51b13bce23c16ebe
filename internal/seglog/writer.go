package seglog

import (
	"fmt"
	"os"
	"path/filepath"
)

// SegmentWriter builds a replacement segment file — a compaction
// rewrite — in a tmp path and activates it by atomic rename. It holds
// no buffer: the caller hands it runs of whole frames, already batched
// and verified in the caller's own window, and each goes to the file
// with one write. The tmp file is ALWAYS fsynced before the rename,
// even for stores that do not sync appends: the rename replaces
// previously durable data, so the replacement must itself be durable
// first.
type SegmentWriter struct {
	ft  *Format
	fs  fileSystem
	f   file
	tmp string
	off int64 // end offset: header + appended frames
}

// newSegmentWriter creates the tmp file in fsys and, for
// header-carrying formats, stamps it with gen.
func (ft *Format) newSegmentWriter(fsys fileSystem, tmp string, gen uint64) (*SegmentWriter, error) {
	f, err := fsys.OpenFile(tmp, os.O_CREATE|os.O_TRUNC)
	if err != nil {
		return nil, fmt.Errorf("%s: create segment tmp: %w", ft.Name, err)
	}
	if ft.SegMagic != 0 {
		if err := ft.writeHeader(f, gen); err != nil {
			f.Close()
			return nil, err
		}
	}
	return &SegmentWriter{ft: ft, fs: fsys, f: f, tmp: tmp, off: ft.DataStart()}, nil
}

// Append writes one or more complete frames through to the file and
// returns the offset the first one starts at. frames is the caller's
// again as soon as Append returns.
func (w *SegmentWriter) Append(frames []byte) (int64, error) {
	start := w.off
	if _, err := w.f.WriteAt(frames, start); err != nil {
		return 0, fmt.Errorf("%s: write segment tmp: %w", w.ft.Name, err)
	}
	w.off += int64(len(frames))
	return start, nil
}

// Size reports the size of the segment built so far.
func (w *SegmentWriter) Size() int64 { return w.off }

// File exposes the underlying handle after a successful Commit, for
// stores that keep serving reads from the renamed file.
func (w *SegmentWriter) File() file { return w.f }

// Commit makes the built segment live: fsync, the written hook
// (a crash-injection point; may be nil), atomic rename onto path, a
// directory sync, and the renamed hook (may be nil). On success the
// file handle stays open (see File); on any error it is closed and the
// caller abandons the rewrite — a leftover tmp is removed by the next
// recovery.
func (w *SegmentWriter) Commit(path string, written, renamed func() error) error {
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
	if err := w.fs.Rename(w.tmp, path); err != nil {
		w.f.Close()
		return fmt.Errorf("%s: activate rewritten segment: %w", w.ft.Name, err)
	}
	if err := w.fs.SyncDir(filepath.Dir(path)); err != nil {
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
