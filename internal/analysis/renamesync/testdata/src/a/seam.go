package a

// fileSystem is a file seam: its Rename and SyncDir, and Sync on the
// files it creates, count as os.Rename, a directory sync and
// (*os.File).Sync, because the package declares the interfaces.
type fileSystem interface {
	Create(name string) (file, error)
	Rename(from, to string) error
	SyncDir(dir string) error
}

type file interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// renamer has a Rename too, but it is a struct, not a seam: its
// renames are out of scope.
type renamer struct{}

func (renamer) Rename(from, to string) error { return nil }

// createTmp writes a tmp file through the seam and closes it, syncing
// it first when asked.
func createTmp(fsys fileSystem, tmp string, sync bool) error {
	f, err := fsys.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write([]byte("x")); err != nil {
		f.Close()
		return err
	}
	if sync {
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// goodSeam publishes through the seam: synced tmp file, rename, dir sync.
func goodSeam(fsys fileSystem, path string) error {
	tmp := path + ".tmp"
	if err := createTmp(fsys, tmp, true); err != nil {
		return err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		return err
	}
	return fsys.SyncDir(".")
}

// badSeamNoFileSync renames a tmp file it never synced.
func badSeamNoFileSync(fsys fileSystem, path string) error {
	tmp := path + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := fsys.Rename(tmp, path); err != nil { // want `without a preceding File\.Sync`
		return err
	}
	return fsys.SyncDir(".")
}

// badSeamNoDirSync never makes the seam's rename durable.
func badSeamNoDirSync(fsys fileSystem, path string) error {
	tmp := path + ".tmp"
	if err := createTmp(fsys, tmp, true); err != nil {
		return err
	}
	return fsys.Rename(tmp, path) // want `without a following directory sync`
}

// notASeam renames a tmp file through a method of a struct.
func notASeam(r renamer, path string) error {
	return r.Rename(path+".tmp", path)
}
