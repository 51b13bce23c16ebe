package seglog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
)

// Snapshot files reuse the record-frame envelope with the store's
// snapshot magic:
//
//	uint32 SnapMagic | uint32 dataLen | uint32 crc32(data) | data
//
// written to <base>.snapshot.tmp, fsynced (when the store syncs), then
// atomically renamed to <base>.snapshot — so the snapshot visible under
// the live name is always internally complete. The payload encoding is
// the store's business (full state for the version manager, an index
// snapshot for the page and metadata logs).

// LoadSnapshotFile reads and validates the snapshot envelope at path
// and returns its payload. A missing file is (nil, nil); a torn or
// corrupt one is an error the caller downgrades to a full rescan or
// replay.
func (ft *Format) LoadSnapshotFile(path string) ([]byte, error) {
	return ft.loadSnapshotFile(osFS{}, path)
}

func (ft *Format) loadSnapshotFile(fsys fileSystem, path string) ([]byte, error) {
	raw, err := fsys.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("%s: read snapshot: %w", ft.Name, err)
	}
	if len(raw) < FrameHeaderSize {
		return nil, fmt.Errorf("%s: snapshot torn: %d bytes", ft.Name, len(raw))
	}
	if binary.LittleEndian.Uint32(raw[0:4]) != ft.SnapMagic {
		return nil, fmt.Errorf("%s: bad snapshot magic", ft.Name)
	}
	dataLen := binary.LittleEndian.Uint32(raw[4:8])
	wantCRC := binary.LittleEndian.Uint32(raw[8:12])
	if int64(FrameHeaderSize)+int64(dataLen) != int64(len(raw)) {
		return nil, fmt.Errorf("%s: snapshot torn: declares %d payload bytes, has %d",
			ft.Name, dataLen, len(raw)-FrameHeaderSize)
	}
	data := raw[FrameHeaderSize:]
	if crc32.ChecksumIEEE(data) != wantCRC {
		return nil, fmt.Errorf("%s: snapshot crc mismatch", ft.Name)
	}
	return data, nil
}

// writeSnapshotFile writes the framed payload to the tmp path and, when
// syncing, fsyncs it — everything short of the activating rename.
func (ft *Format) writeSnapshotFile(fsys fileSystem, base string, payload []byte, fsync bool) error {
	frame := make([]byte, FrameHeaderSize+len(payload))
	copy(frame[FrameHeaderSize:], payload)
	putFrameHeader(frame, ft.SnapMagic)
	tmp := SnapshotTmpPath(base)
	f, err := fsys.OpenFile(tmp, os.O_CREATE|os.O_TRUNC)
	if err != nil {
		return fmt.Errorf("%s: create snapshot tmp: %w", ft.Name, err)
	}
	if _, err := f.WriteAt(frame, 0); err != nil {
		f.Close()
		return fmt.Errorf("%s: write snapshot: %w", ft.Name, err)
	}
	if fsync {
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("%s: sync snapshot: %w", ft.Name, err)
		}
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("%s: close snapshot tmp: %w", ft.Name, err)
	}
	return nil
}

// PublishSnapshot writes the framed payload to the tmp path and
// activates it by atomic rename (plus a directory sync when the store
// syncs). The two hooks are the stores' crash-injection points: written
// fires once the tmp file is fully on disk, renamed once the snapshot
// is live. Either may be nil.
func (ft *Format) PublishSnapshot(base string, payload []byte, fsync bool, written, renamed func() error) error {
	return ft.publishSnapshot(osFS{}, base, payload, fsync, written, renamed)
}

func (ft *Format) publishSnapshot(fsys fileSystem, base string, payload []byte, fsync bool, written, renamed func() error) error {
	if err := ft.writeSnapshotFile(fsys, base, payload, fsync); err != nil {
		return err
	}
	if written != nil {
		if err := written(); err != nil {
			return err
		}
	}
	if err := fsys.Rename(SnapshotTmpPath(base), SnapshotPath(base)); err != nil {
		return fmt.Errorf("%s: activate snapshot: %w", ft.Name, err)
	}
	if fsync {
		if err := fsys.SyncDir(filepath.Dir(base)); err != nil {
			return fmt.Errorf("%s: sync snapshot dir: %w", ft.Name, err)
		}
	}
	if renamed != nil {
		if err := renamed(); err != nil {
			return err
		}
	}
	return nil
}
