package version

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"blobseer/internal/obs"
	"blobseer/internal/seglog"
	"blobseer/internal/wire"
)

var updateWALFixture = flag.Bool("update-wal-fixture", false, "rewrite testdata/wal and testdata/wal.golden with this build")

// walFixtureSeries are the recovery series the fixture golden pins.
var walFixtureSeries = []string{
	"version_recovery_snapshot_loaded",
	"version_recovery_snapshot_blobs",
	"version_recovery_segments",
	"version_recovery_stale_removed",
	"version_recovery_events_replayed",
}

// TestWALFixtureRecovers pins the write-ahead log's on-disk format:
// testdata/wal is a log an earlier build wrote — a checkpoint snapshot,
// tail segments holding every event kind, and a torn frame at the end of
// the last one — and a manager started on a copy of it must come up with
// exactly the state and recovery series testdata/wal.golden records.
func TestWALFixtureRecovers(t *testing.T) {
	if *updateWALFixture {
		writeWALFixture(t)
	}
	dir := t.TempDir()
	copyDir(t, filepath.Join("testdata", "wal"), dir)
	m, stop := startDurable(t, ManagerConfig{WALPath: filepath.Join(dir, "vm.wal")})
	defer stop()
	got := walFixtureReport(m)
	want, err := os.ReadFile(filepath.Join("testdata", "wal.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("recovered from the fixture:\n%s\nwant:\n%s", got, want)
	}
}

// walFixtureReport renders what the golden holds: the recovered state's
// canonical encoding and the recovery series.
func walFixtureReport(m *Manager) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "state %s\n", hex.EncodeToString(fingerprint(m)))
	for _, name := range walFixtureSeries {
		fmt.Fprintf(&b, "%s %v\n", name, obs.Value(m, name))
	}
	return b.Bytes()
}

// writeWALFixture regenerates testdata/wal and its golden with this
// build: blobs 1 and 2 with a few published versions under a
// checkpoint, then a tail of every event kind over 128-byte segments,
// then a torn frame appended to the last segment.
func writeWALFixture(t *testing.T) {
	t.Helper()
	dir := filepath.Join("testdata", "wal")
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	cfg := ManagerConfig{WALPath: filepath.Join(dir, "vm.wal"), WALSegmentBytes: 128}
	m, stop := startDurable(t, cfg)
	b1 := apply(t, m, &wire.CreateBlobReq{PageSize: 1024}).(*wire.CreateBlobResp).Blob
	for i := 0; i < 3; i++ {
		a := apply(t, m, &wire.AssignReq{Blob: b1, Size: uint64(100 * (i + 1)), Append: true}).(*wire.AssignResp)
		apply(t, m, &wire.CompleteReq{Blob: b1, Version: a.Version})
	}
	b2 := apply(t, m, &wire.CreateBlobReq{PageSize: 4096}).(*wire.CreateBlobResp).Blob
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// The tail: create, assign, complete, abort, branch and expire.
	apply(t, m, &wire.CreateBlobReq{PageSize: 512})
	a := apply(t, m, &wire.AssignReq{Blob: b1, Size: 50, Append: true}).(*wire.AssignResp)
	apply(t, m, &wire.CompleteReq{Blob: b1, Version: a.Version})
	a = apply(t, m, &wire.AssignReq{Blob: b1, Size: 70, Append: true}).(*wire.AssignResp)
	apply(t, m, &wire.AbortReq{Blob: b1, Version: a.Version})
	br := apply(t, m, &wire.BranchReq{Blob: b1, Version: 3}).(*wire.BranchResp).NewBlob
	apply(t, m, &wire.ExpireReq{Blob: b1, UpTo: 1})
	apply(t, m, &wire.AssignReq{Blob: b2, Size: 4096, Append: true}) // left in flight
	a = apply(t, m, &wire.AssignReq{Blob: br, Offset: 10, Size: 20}).(*wire.AssignResp)
	apply(t, m, &wire.CompleteReq{Blob: br, Version: a.Version})
	stop()

	// A crash mid-append: a frame header announcing more payload than
	// follows it.
	segs, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	last := ""
	for _, s := range segs {
		if s.Name() != filepath.Base(seglog.SnapshotPath("vm.wal")) {
			last = s.Name()
		}
	}
	torn := make([]byte, 12+5)
	binary.LittleEndian.PutUint32(torn[0:4], walMagic)
	binary.LittleEndian.PutUint32(torn[4:8], 41)
	binary.LittleEndian.PutUint32(torn[8:12], 0xBAD)
	appendBytes(t, filepath.Join(dir, last), torn)

	probe := t.TempDir()
	copyDir(t, dir, probe)
	m2, stop2 := startDurable(t, ManagerConfig{WALPath: filepath.Join(probe, "vm.wal")})
	defer stop2()
	if err := os.WriteFile(filepath.Join("testdata", "wal.golden"), walFixtureReport(m2), 0o644); err != nil {
		t.Fatal(err)
	}
}

// copyDir copies the files of directory from into directory to.
func copyDir(t *testing.T, from, to string) {
	t.Helper()
	names, err := os.ReadDir(from)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		raw, err := os.ReadFile(filepath.Join(from, n.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, n.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
