package seglog

import (
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
)

// memFS is a file system in RAM, private to one store. Nothing is
// durable, so Sync and SyncDir do nothing, and a directory is only the
// directory part of a name. A file is a *memData, which names and
// handles share: a handle keeps its bytes across Rename and Remove, as
// an open os.File keeps its inode, and they go once nothing refers to
// them — Close does nothing.
type memFS struct {
	mu    sync.Mutex
	files map[string]*memData
}

// memChunk is the unit a file grows by: appending never copies what a
// file holds, and a file wastes at most one chunk.
const memChunk = 64 << 10

// memData is one file. Bytes past size, in the last chunk, are zero, so
// a file grown over them reads zeros there, as a sparse os file does. mu
// lets a segment be read while the committer appends to it.
type memData struct {
	mu     sync.RWMutex
	chunks [][]byte
	size   int64
}

func newMemFS() *memFS { return &memFS{files: make(map[string]*memData)} }

// get returns name's file, creating an empty one if asked to.
func (m *memFS) get(name string, create bool) (*memData, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	d, ok := m.files[name]
	if !ok && create {
		d, ok = &memData{}, true
		m.files[name] = d
	}
	if !ok {
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
	}
	return d, nil
}

func (m *memFS) OpenFile(name string, flag int) (file, error) {
	d, err := m.get(name, flag&os.O_CREATE != 0)
	if err != nil {
		return nil, err
	}
	if flag&os.O_TRUNC != 0 {
		d.Truncate(0) // never fails in memory
	}
	return d, nil
}

func (m *memFS) ReadFile(name string) ([]byte, error) {
	d, err := m.get(name, false)
	if err != nil {
		return nil, err
	}
	size, _ := d.Size() // never fails in memory
	p := make([]byte, size)
	_, err = d.ReadAt(p, 0)
	return p, err
}

func (m *memFS) List(dir string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var names []string
	for name := range m.files {
		if filepath.Dir(name) == filepath.Clean(dir) {
			names = append(names, filepath.Base(name))
		}
	}
	return names, nil
}

func (m *memFS) Remove(name string) error { return m.Rename(name, "") }

// Rename moves from's file to to; an empty to removes it.
func (m *memFS) Rename(from, to string) error {
	d, err := m.get(from, false)
	if err == nil {
		m.mu.Lock()
		delete(m.files, from)
		if to != "" {
			m.files[to] = d
		}
		m.mu.Unlock()
	}
	return err
}

func (*memFS) MkdirAll(string) error { return nil }
func (*memFS) SyncDir(string) error  { return nil }

// copyOut copies the file's bytes from off into p, which must not reach
// past the last chunk. Called with mu held.
func (d *memData) copyOut(p []byte, off int64) {
	for len(p) > 0 {
		n := copy(p, d.chunks[off/memChunk][off%memChunk:])
		p, off = p[n:], off+int64(n)
	}
}

// resize grows the file with chunks of zeros, or drops the chunks past
// its new end and zeroes the rest of the last one. Called with mu held.
func (d *memData) resize(size int64) {
	n := int((size + memChunk - 1) / memChunk)
	for len(d.chunks) < n {
		d.chunks = append(d.chunks, make([]byte, memChunk))
	}
	if size < d.size {
		clear(d.chunks[n:])
		d.chunks = d.chunks[:n]
		if tail := size % memChunk; tail != 0 {
			clear(d.chunks[n-1][tail:])
		}
	}
	d.size = size
}

func (d *memData) ReadAt(p []byte, off int64) (int, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	n := int(max(0, min(int64(len(p)), d.size-off)))
	d.copyOut(p[:n], off)
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (d *memData) WriteAt(p []byte, off int64) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if end := off + int64(len(p)); end > d.size {
		d.resize(end)
	}
	for q, at := p, off; len(q) > 0; {
		n := copy(d.chunks[at/memChunk][at%memChunk:], q)
		q, at = q[n:], at+int64(n)
	}
	return len(p), nil
}

func (d *memData) Truncate(size int64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.resize(size)
	return nil
}

func (d *memData) Size() (int64, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.size, nil
}

func (*memData) Sync() error  { return nil }
func (*memData) Close() error { return nil }
