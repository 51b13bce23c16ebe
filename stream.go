package blobseer

import (
	"context"
	"fmt"
	"io"
)

// At pins published snapshot v and returns a read-only view of it.
// Snapshots are immutable, so the view behaves like a fixed-size file
// that can never change underneath its readers: it stays valid and
// consistent forever, no matter how the blob evolves.
func (b *Blob) At(ctx context.Context, v Version) (*SnapshotView, error) {
	size, err := b.Size(ctx, v)
	if err != nil {
		return nil, err
	}
	return &SnapshotView{ctx: ctx, b: b, v: v, size: size}, nil
}

// SnapshotView is a random-access view of one snapshot, implementing
// io.ReaderAt. It has no cursor and is safe for concurrent use by any
// number of goroutines; use Reader for a cursor-shaped io.ReadSeeker.
type SnapshotView struct {
	// The io.ReaderAt signature cannot carry a context, so the view pins
	// the one its creator passed to At: cancelling it invalidates the
	// view, exactly like closing a file invalidates its readers.
	//blobseer:ctx io.ReaderAt adapter pins its creator's context by documented design
	ctx  context.Context
	b    *Blob
	v    Version
	size uint64
}

// Size returns the snapshot's total size in bytes.
func (s *SnapshotView) Size() uint64 { return s.size }

// Version returns the snapshot the view is pinned to.
func (s *SnapshotView) Version() Version { return s.v }

// ReadAt implements io.ReaderAt. It runs under the context its view was
// created with (see SnapshotView.ctx).
//
//blobseer:ctx io.ReaderAt signature; the view's pinned creator context applies
func (s *SnapshotView) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("blobseer: negative offset %d", off)
	}
	if uint64(off) >= s.size {
		return 0, io.EOF
	}
	n := len(p)
	var eof bool
	if rem := s.size - uint64(off); uint64(n) > rem {
		n = int(rem)
		eof = true
	}
	if err := s.b.Read(s.ctx, s.v, p[:n], uint64(off)); err != nil {
		return 0, err
	}
	if eof {
		return n, io.EOF
	}
	return n, nil
}

// Reader returns an io.ReadSeeker over the view, starting at offset 0.
// It buffers nothing; each Read issues one ranged blob read, so wrap it
// in a bufio.Reader for byte-at-a-time consumers.
func (s *SnapshotView) Reader() *SnapshotReader {
	return &SnapshotReader{view: s, sr: io.NewSectionReader(s, 0, int64(s.size))}
}

// NewReader returns an io.ReadSeeker over snapshot v of the blob,
// starting at offset 0. It is shorthand for At(ctx, v) followed by
// Reader.
func (b *Blob) NewReader(ctx context.Context, v Version) (*SnapshotReader, error) {
	view, err := b.At(ctx, v)
	if err != nil {
		return nil, err
	}
	return view.Reader(), nil
}

// SnapshotReader adds a cursor to a SnapshotView: io.Reader, io.ReaderAt
// and io.Seeker over one snapshot. It is safe for concurrent use through
// ReadAt; Read/Seek share the cursor and need external synchronization.
// Read and Seek run under the context the view was created with (see
// SnapshotView.ctx).
type SnapshotReader struct {
	view *SnapshotView
	sr   *io.SectionReader // the cursor, over view
}

// View returns the underlying snapshot view.
func (r *SnapshotReader) View() *SnapshotView { return r.view }

// Size returns the snapshot's total size in bytes.
func (r *SnapshotReader) Size() uint64 { return r.view.size }

// Version returns the snapshot the reader is pinned to.
func (r *SnapshotReader) Version() Version { return r.view.v }

// Read implements io.Reader.
func (r *SnapshotReader) Read(p []byte) (int, error) { return r.sr.Read(p) }

// ReadAt implements io.ReaderAt; it delegates to the view and ignores
// the cursor.
func (r *SnapshotReader) ReadAt(p []byte, off int64) (int, error) {
	return r.view.ReadAt(p, off)
}

// Seek implements io.Seeker.
func (r *SnapshotReader) Seek(offset int64, whence int) (int64, error) {
	return r.sr.Seek(offset, whence)
}

var (
	_ io.ReaderAt   = (*SnapshotView)(nil)
	_ io.ReadSeeker = (*SnapshotReader)(nil)
	_ io.ReaderAt   = (*SnapshotReader)(nil)
)

// NewWriter returns an io.WriteCloser that appends to the blob. Bytes are
// buffered until the buffer reaches chunkBytes (default 1 MiB) and then
// APPENDed as one atomic update; Close flushes the remainder and waits for
// the last snapshot to publish, so after Close returns the whole stream is
// readable. Each flush is one snapshot: interleaved writers produce
// interleaved — but never torn — runs.
func (b *Blob) NewWriter(ctx context.Context, chunkBytes int) *AppendWriter {
	if chunkBytes <= 0 {
		chunkBytes = 1 << 20
	}
	return &AppendWriter{ctx: ctx, b: b, chunk: chunkBytes}
}

// AppendWriter buffers and appends. Not safe for concurrent use; create
// one writer per producer goroutine (appends from different writers
// serialize at the version manager, like any APPEND).
type AppendWriter struct {
	// The io.Writer/io.Closer signatures cannot carry a context, so the
	// writer pins the one its creator passed to NewWriter: cancelling it
	// fails subsequent writes and the final flush.
	//blobseer:ctx io.WriteCloser adapter pins its creator's context by documented design
	ctx    context.Context
	b      *Blob
	chunk  int
	buf    []byte
	last   Version
	wrote  bool
	closed bool
}

// Write implements io.Writer.
func (w *AppendWriter) Write(p []byte) (int, error) {
	if w.closed {
		return 0, fmt.Errorf("blobseer: write on closed AppendWriter")
	}
	total := len(p)
	for len(p) > 0 {
		space := w.chunk - len(w.buf)
		if space == 0 {
			if err := w.flush(); err != nil {
				return total - len(p), err
			}
			space = w.chunk
		}
		if space > len(p) {
			space = len(p)
		}
		w.buf = append(w.buf, p[:space]...)
		p = p[space:]
	}
	return total, nil
}

// flush appends the buffered bytes as one snapshot.
func (w *AppendWriter) flush() error {
	if len(w.buf) == 0 {
		return nil
	}
	v, err := w.b.Append(w.ctx, w.buf)
	if err != nil {
		return err
	}
	w.last, w.wrote = v, true
	w.buf = w.buf[:0]
	return nil
}

// Flush appends any buffered bytes now, without closing the writer.
func (w *AppendWriter) Flush() error {
	if w.closed {
		return fmt.Errorf("blobseer: flush on closed AppendWriter")
	}
	return w.flush()
}

// LastVersion returns the snapshot version of the most recent flush and
// whether anything has been flushed yet.
func (w *AppendWriter) LastVersion() (Version, bool) { return w.last, w.wrote }

// Close implements io.Closer: it flushes and then blocks until the last
// appended snapshot is published (read-your-writes for the whole stream),
// all under the context its writer was created with (see AppendWriter.ctx).
//
//blobseer:ctx io.Closer signature; the writer's pinned creator context applies
func (w *AppendWriter) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if err := w.flush(); err != nil {
		return err
	}
	if w.wrote {
		return w.b.Sync(w.ctx, w.last)
	}
	return nil
}

var _ io.WriteCloser = (*AppendWriter)(nil)
