package seglog

import (
	"io"
	"os"
)

// fileSystem is where one store's files live: osFS, or a private memFS
// (memfs.go). Names are paths as the os package takes them.
type fileSystem interface {
	// OpenFile opens name for reading and writing; flag may add
	// os.O_CREATE and os.O_TRUNC, meaning what they mean to os.OpenFile.
	OpenFile(name string, flag int) (file, error)
	ReadFile(name string) ([]byte, error)
	// List returns the names — not paths — of the entries in dir.
	List(dir string) ([]string, error)
	Remove(name string) error
	Rename(from, to string) error
	MkdirAll(dir string) error
	SyncDir(dir string) error
}

// file is one open file. ReadAt keeps the io.ReaderAt contract: reading
// fewer than len(p) bytes is an error.
type file interface {
	io.ReaderAt
	io.WriterAt
	Sync() error
	Truncate(size int64) error
	Size() (int64, error)
	Close() error
}

// osFS is the operating system's file system.
type osFS struct{}

func (osFS) OpenFile(name string, flag int) (file, error) {
	f, err := os.OpenFile(name, os.O_RDWR|flag, 0o644)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

func (osFS) List(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, ent := range entries {
		names = append(names, ent.Name())
	}
	return names, nil
}

func (osFS) Remove(name string) error     { return os.Remove(name) }
func (osFS) Rename(from, to string) error { return os.Rename(from, to) }
func (osFS) MkdirAll(dir string) error    { return os.MkdirAll(dir, 0o755) }

// SyncDir fsyncs a directory so renames, creations and deletions in it
// are durable.
func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// osFile is an open operating-system file.
type osFile struct{ *os.File }

func (f osFile) Size() (int64, error) {
	info, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return info.Size(), nil
}
