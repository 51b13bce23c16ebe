package version

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"blobseer/internal/seglog"
	"blobseer/internal/transport"
	"blobseer/internal/wire"
)

// startDurable boots a manager over a throwaway inproc transport; the
// returned stop tears both down. Unlike startManager it is restartable:
// call it again on the same config to simulate a new incarnation.
func startDurable(t *testing.T, cfg ManagerConfig) (*Manager, func()) {
	t.Helper()
	net := transport.NewInproc()
	ln, err := net.Listen("vm")
	if err != nil {
		t.Fatal(err)
	}
	m, err := ServeManagerDurable(ln, cfg)
	if err != nil {
		net.Close()
		t.Fatal(err)
	}
	return m, func() {
		m.Close()
		net.Close()
	}
}

// TestSegmentedWALBoundedRecovery is the acceptance test for compaction:
// after many more updates than the checkpoint interval, the on-disk
// segment count stays bounded and a restart replays only the tail —
// asserted through the recovery stats — while in-flight updates survive
// the snapshot.
func TestSegmentedWALBoundedRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "vm.wal")
	cfg := ManagerConfig{
		WALPath:         path,
		WALSegmentBytes: 256, // a handful of events per segment
		CheckpointEvery: 40,
	}
	m, stop := startDurable(t, cfg)
	id := apply(t, m, &wire.CreateBlobReq{PageSize: 1024}).(*wire.CreateBlobResp).Blob
	const cycles = 300 // 600 events, 15x the checkpoint interval
	for i := 0; i < cycles; i++ {
		a := apply(t, m, &wire.AssignReq{Blob: id, Size: 128, Append: true}).(*wire.AssignResp)
		apply(t, m, &wire.CompleteReq{Blob: id, Version: a.Version})
	}
	// The background checkpointer must have fired by itself.
	deadline := time.Now().Add(5 * time.Second)
	for m.Checkpoints() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("automatic checkpoint never ran")
		}
		time.Sleep(time.Millisecond)
	}
	// One forced checkpoint pins the tail, then a few uncovered events.
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	inflight := apply(t, m, &wire.AssignReq{Blob: id, Size: 64, Append: true}).(*wire.AssignResp)
	tail := apply(t, m, &wire.AssignReq{Blob: id, Size: 32, Append: true}).(*wire.AssignResp)
	apply(t, m, &wire.CompleteReq{Blob: id, Version: tail.Version})
	rec := apply(t, m, &wire.RecentReq{Blob: id}).(*wire.RecentResp)

	segs, err := listSegments(path)
	if err != nil {
		t.Fatal(err)
	}
	// 600+ events at ~6 per 256-byte segment would be ~100 files without
	// compaction; covered segments must be gone.
	if len(segs) == 0 || len(segs) > 5 {
		t.Fatalf("segments on disk after compaction = %d, want 1..5", len(segs))
	}
	stop()

	m2, stop2 := startDurable(t, cfg)
	defer stop2()
	stats := m2.log.Stats()
	if !stats.SnapshotLoaded {
		t.Fatalf("restart ignored the snapshot: %+v", stats)
	}
	// A pending auto-checkpoint may cover part of the tail too; either
	// way the replay is bounded by the interval, not the 600-event history.
	if stats.Replayed > 20 {
		t.Fatalf("restart replayed %d events, want only the post-checkpoint tail (<= 20)", stats.Replayed)
	}
	rec2 := apply(t, m2, &wire.RecentReq{Blob: id}).(*wire.RecentResp)
	if rec2.Version != rec.Version || rec2.Size != rec.Size {
		t.Fatalf("recent after restart = %+v, want %+v", rec2, rec)
	}
	// The in-flight update survived the snapshot+tail recovery: completing
	// it publishes (the later tail version already completed behind it).
	apply(t, m2, &wire.CompleteReq{Blob: id, Version: inflight.Version})
	rec3 := apply(t, m2, &wire.RecentReq{Blob: id}).(*wire.RecentResp)
	if rec3.Version != tail.Version {
		t.Fatalf("completing recovered in-flight update published %d, want %d", rec3.Version, tail.Version)
	}
}

// TestCheckpointIdempotentAndQuiescent pins checkpoint behavior with no
// traffic: repeated checkpoints neither error nor leak segments.
func TestCheckpointIdempotentAndQuiescent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "vm.wal")
	cfg := ManagerConfig{WALPath: path, WALSync: true, WALSegmentBytes: 128}
	m, stop := startDurable(t, cfg)
	defer stop()
	id := apply(t, m, &wire.CreateBlobReq{PageSize: 512}).(*wire.CreateBlobResp).Blob
	a := apply(t, m, &wire.AssignReq{Blob: id, Size: 100, Append: true}).(*wire.AssignResp)
	apply(t, m, &wire.CompleteReq{Blob: id, Version: a.Version})
	for i := 0; i < 3; i++ {
		if err := m.Checkpoint(); err != nil {
			t.Fatalf("checkpoint %d: %v", i, err)
		}
	}
	segs, err := listSegments(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Fatalf("quiescent re-checkpoints left %d segments, want 1", len(segs))
	}
	if got := m.Checkpoints(); got != 3 {
		t.Fatalf("Checkpoints() = %d, want 3", got)
	}
}

// TestSingleFileWALRefused: a regular file at the base path is a
// pre-segmentation log this build cannot read; silently starting an
// empty WAL next to it would drop its history.
func TestSingleFileWALRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "vm.wal")
	if err := os.WriteFile(path, walMachine.Frame((&walEvent{kind: walCreate, blob: 1, pageSize: 512}).encode()), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := openWAL(path, walOptions{})
	if err == nil || !strings.Contains(err.Error(), "pre-segmentation single-file log, unsupported") {
		t.Fatalf("open over a single-file log = %v, want the unsupported-format error", err)
	}
}

// TestCorruptSnapshotAfterCompactionRefusesOpen pins the double-fault
// path: once compaction has deleted the segments a snapshot covers,
// losing that snapshot to a disk fault must refuse the open loudly —
// full replay is impossible and coming up with pre-snapshot blobs
// silently missing would be data loss.
func TestCorruptSnapshotAfterCompactionRefusesOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "vm.wal")
	cfg := ManagerConfig{WALPath: path, WALSegmentBytes: 64}
	m, stop := startDurable(t, cfg)
	id := apply(t, m, &wire.CreateBlobReq{PageSize: 512}).(*wire.CreateBlobResp).Blob
	for i := 0; i < 5; i++ {
		a := apply(t, m, &wire.AssignReq{Blob: id, Size: 100, Append: true}).(*wire.AssignResp)
		apply(t, m, &wire.CompleteReq{Blob: id, Version: a.Version})
	}
	if err := m.Checkpoint(); err != nil { // deletes the covered segments
		t.Fatal(err)
	}
	stop()
	raw, err := os.ReadFile(seglog.SnapshotPath(path))
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xFF
	if err := os.WriteFile(seglog.SnapshotPath(path), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := openWAL(path, walOptions{}); err == nil {
		t.Fatal("open succeeded on a corrupt snapshot with its covered segments already deleted")
	}
}

// TestFailedOpenPreservesStaleSegments pins that a refused open deletes
// nothing: with a snapshot claiming nextSeg=5 but segment 5 missing, the
// covered segments 2 and 3 (left by a crashed compaction) must survive
// the failed open for manual recovery.
func TestFailedOpenPreservesStaleSegments(t *testing.T) {
	path := filepath.Join(t.TempDir(), "vm.wal")
	if err := os.WriteFile(seglog.SnapshotPath(path), snapshotFile(encodeSnapshot(&snapshotState{nextSeg: 5})), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, idx := range []uint64{2, 3, 7} {
		if err := os.WriteFile(seglog.SegmentPath(path, idx), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := openWAL(path, walOptions{}); err == nil {
		t.Fatal("open succeeded over a missing segment")
	}
	for _, idx := range []uint64{2, 3, 7} {
		if _, err := os.Stat(seglog.SegmentPath(path, idx)); err != nil {
			t.Fatalf("failed open removed segment %d: %v", idx, err)
		}
	}
}

// TestSnapshotRoundTrip pins the canonical snapshot encoding on a state
// with every feature: branches, aborted versions, in-flight updates with
// and without the completed flag.
func TestSnapshotRoundTrip(t *testing.T) {
	b := newBlobState(1, 4096)
	b.next = 6
	b.published = 4
	b.readable = 3
	b.pendingSize = 900
	b.sizes[1] = 100
	b.sizes[3] = 300
	b.aborted[4] = true
	b.inflight[5] = &update{version: 5, offset: 300, size: 600, newSize: 900, completed: true}
	br := newBranchState(2, b, 3, 300)
	br.inflight[4] = &update{version: 4, offset: 0, size: 10, newSize: 310, aborted: true}
	s := &snapshotState{nextSeg: 9, nextBlob: 2, blobs: []*blobState{br, b}} // unsorted on purpose
	enc := encodeSnapshot(s)
	got, err := decodeSnapshot(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeSnapshot(got), enc) {
		t.Fatal("snapshot round trip is not the identity")
	}
	if got.nextSeg != 9 || got.nextBlob != 2 || len(got.blobs) != 2 {
		t.Fatalf("decoded header: %+v", got)
	}
	gb := got.blobs[0] // sorted: blob 1 first
	if gb.id != 1 || gb.next != 6 || gb.published != 4 || gb.readable != 3 || gb.pendingSize != 900 {
		t.Fatalf("decoded blob 1: %+v", gb)
	}
	if !gb.inflight[5].completed || gb.inflight[5].newSize != 900 {
		t.Fatalf("decoded in-flight: %+v", gb.inflight[5])
	}
	if !got.blobs[1].inflight[4].aborted || len(got.blobs[1].lineage) != 2 {
		t.Fatalf("decoded branch: %+v", got.blobs[1])
	}
	// Non-canonical input is rejected: flip the format version.
	bad := append([]byte(nil), enc...)
	bad[0] = 0xFF
	if _, err := decodeSnapshot(bad); err == nil {
		t.Fatal("unknown format accepted")
	}
}
