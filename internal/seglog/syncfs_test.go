package seglog

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// syncFS is the file seam the crash and maintenance tests run a store
// that syncs over. It holds every rename to the publish sequence: a
// Rename fails when its source was written after its last Sync, and the
// store's next fault point fails the maintenance call that made a
// rename not yet followed by a SyncDir of its directory. Every rename a
// store makes is followed by a fault point (the renamed hook of
// publishSnapshot and of segmentWriter.Commit), so the check sees each
// one; fault installs it.
type syncFS struct {
	fileSystem
	mu      sync.Mutex
	dirty   map[string]*bool  // by name: written since its last Sync
	renamed map[string]string // by directory: a rename not yet dir-synced
}

func newSyncFS(fsys fileSystem) *syncFS {
	return &syncFS{fileSystem: fsys, dirty: make(map[string]*bool), renamed: make(map[string]string)}
}

// fault wraps a store's fault hook with the check for renames left
// without a SyncDir.
func (s *syncFS) fault(next func(point string) error) func(point string) error {
	return func(point string) error {
		var err error
		s.mu.Lock()
		for dir, rename := range s.renamed {
			err = fmt.Errorf("syncfs: at %s: %s, and no SyncDir of %s since", point, rename, dir)
		}
		s.mu.Unlock()
		if err != nil || next == nil {
			return err
		}
		return next(point)
	}
}

// setDirty records whether the file behind flag was written since its
// last Sync.
func (s *syncFS) setDirty(flag *bool, dirty bool) {
	s.mu.Lock()
	*flag = dirty
	s.mu.Unlock()
}

func (s *syncFS) OpenFile(name string, flag int) (file, error) {
	f, err := s.fileSystem.OpenFile(name, flag)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	dirty := s.dirty[name]
	if dirty == nil {
		dirty = new(bool)
		s.dirty[name] = dirty
	}
	if flag&os.O_TRUNC != 0 {
		*dirty = true
	}
	return &syncFile{file: f, fs: s, dirty: dirty}, nil
}

func (s *syncFS) Rename(from, to string) error {
	s.mu.Lock()
	dirty := s.dirty[from]
	unsynced := dirty != nil && *dirty
	s.mu.Unlock()
	if unsynced {
		return fmt.Errorf("syncfs: rename %s to %s: written since its last Sync", from, to)
	}
	if err := s.fileSystem.Rename(from, to); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.dirty, from)
	delete(s.dirty, to)
	if dirty != nil {
		s.dirty[to] = dirty
	}
	s.renamed[filepath.Dir(to)] = fmt.Sprintf("renamed %s to %s", from, to)
	return nil
}

func (s *syncFS) Remove(name string) error {
	s.mu.Lock()
	delete(s.dirty, name)
	s.mu.Unlock()
	return s.fileSystem.Remove(name)
}

func (s *syncFS) SyncDir(dir string) error {
	if err := s.fileSystem.SyncDir(dir); err != nil {
		return err
	}
	s.mu.Lock()
	delete(s.renamed, dir)
	s.mu.Unlock()
	return nil
}

// syncFile is a file opened through a syncFS: a write marks it dirty,
// a Sync clean.
type syncFile struct {
	file
	fs    *syncFS
	dirty *bool
}

func (f *syncFile) WriteAt(p []byte, off int64) (int, error) {
	f.fs.setDirty(f.dirty, true)
	return f.file.WriteAt(p, off)
}

func (f *syncFile) Truncate(size int64) error {
	f.fs.setDirty(f.dirty, true)
	return f.file.Truncate(size)
}

func (f *syncFile) Sync() error {
	if err := f.file.Sync(); err != nil {
		return err
	}
	f.fs.setDirty(f.dirty, false)
	return nil
}
