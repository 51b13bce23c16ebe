package version

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"testing"

	"blobseer/internal/wire"
)

// TestReadOverlapsParkedCommit pins the two-phase append contract:
// handlers apply the event to the shard at enqueue time and release the
// shard lock before awaiting durability, so while the group-commit
// leader sits in the fsync, a read on the SAME blob completes — and
// already sees the parked mutation. The commit is parked on a channel;
// before the two-phase split the handler held the shard lock across
// the fsync and the read below would time out the test.
func TestReadOverlapsParkedCommit(t *testing.T) {
	dir := t.TempDir()
	cfg := ManagerConfig{
		WALPath: filepath.Join(dir, "vm.wal"),
		WALSync: true,
	}
	m, stop := startDurable(t, cfg)

	b := apply(t, m, &wire.CreateBlobReq{PageSize: 1024}).(*wire.CreateBlobResp).Blob
	a1 := apply(t, m, &wire.AssignReq{Blob: b, Size: 100, Append: true}).(*wire.AssignResp)
	apply(t, m, &wire.CompleteReq{Blob: b, Version: a1.Version})
	a2 := apply(t, m, &wire.AssignReq{Blob: b, Size: 200, Append: true}).(*wire.AssignResp)

	entered, release := m.log.GateNextCommit()

	// The publish of a2 parks in the WAL commit...
	done := make(chan error, 1)
	go func() {
		_, err := m.Apply(context.Background(), &wire.CompleteReq{Blob: b, Version: a2.Version})
		done <- err
	}()
	<-entered

	// ...and a read of the same blob neither blocks nor misses it: the
	// event applied at enqueue, before durability.
	r := apply(t, m, &wire.RecentReq{Blob: b}).(*wire.RecentResp)
	if r.Version != a2.Version {
		t.Fatalf("recent while commit parked = v%d, want v%d (apply-at-enqueue)", r.Version, a2.Version)
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatalf("parked complete: %v", err)
	}

	// The ack was withheld until durability: a restart still shows v2.
	stop()
	m2, stop2 := startDurable(t, cfg)
	defer stop2()
	r2 := apply(t, m2, &wire.RecentReq{Blob: b}).(*wire.RecentResp)
	if r2.Version != a2.Version {
		t.Fatalf("recent after restart = v%d, want v%d", r2.Version, a2.Version)
	}
}

// TestAbortCascadeAfterAbortedPublishPointKeepsSize pins the abort
// size-rollback fix. Two waves of aborts: the first leaves the dense
// publication pointer resting on an aborted version (advance skips over
// it); the second finds no surviving in-flight update and must roll the
// pending size back to the READABLE version's size. Before the fix it
// fell back to the publication point — an aborted version with no size
// entry — zeroing the pending size, so the next append was assigned
// offset 0 over live data. (Found live: dead-writer sweeps after a
// torn-tail restart produce exactly this two-wave shape.)
func TestAbortCascadeAfterAbortedPublishPointKeepsSize(t *testing.T) {
	dir := t.TempDir()
	cfg := ManagerConfig{
		WALPath: filepath.Join(dir, "vm.wal"),
		WALSync: true,
	}
	m, stop := startDurable(t, cfg)

	b := apply(t, m, &wire.CreateBlobReq{PageSize: 1024}).(*wire.CreateBlobResp).Blob
	a1 := apply(t, m, &wire.AssignReq{Blob: b, Size: 100, Append: true}).(*wire.AssignResp)
	apply(t, m, &wire.CompleteReq{Blob: b, Version: a1.Version})

	// Wave 1: an abandoned append is aborted; publication advances over
	// it and now rests on the aborted version.
	a2 := apply(t, m, &wire.AssignReq{Blob: b, Size: 50, Append: true}).(*wire.AssignResp)
	apply(t, m, &wire.AbortReq{Blob: b, Version: a2.Version})

	// Wave 2: another abandoned append, no surviving in-flight updates.
	a3 := apply(t, m, &wire.AssignReq{Blob: b, Size: 50, Append: true}).(*wire.AssignResp)
	if a3.Offset != 100 {
		t.Fatalf("append after first abort assigned offset %d, want 100", a3.Offset)
	}
	apply(t, m, &wire.AbortReq{Blob: b, Version: a3.Version})

	a4 := apply(t, m, &wire.AssignReq{Blob: b, Size: 25, Append: true}).(*wire.AssignResp)
	if a4.Offset != 100 {
		t.Fatalf("append after two abort waves assigned offset %d, want 100", a4.Offset)
	}
	apply(t, m, &wire.CompleteReq{Blob: b, Version: a4.Version})
	r := apply(t, m, &wire.RecentReq{Blob: b}).(*wire.RecentResp)
	if r.Version != a4.Version || r.Size != 125 {
		t.Fatalf("recent = v%d size %d, want v%d size 125", r.Version, r.Size, a4.Version)
	}

	// The aborts are WAL events replayed through the same state machine:
	// recovery must land on the same sizes.
	stop()
	m2, stop2 := startDurable(t, cfg)
	defer stop2()
	r2 := apply(t, m2, &wire.RecentReq{Blob: b}).(*wire.RecentResp)
	if r2.Version != a4.Version || r2.Size != 125 {
		t.Fatalf("recent after restart = v%d size %d, want v%d size 125", r2.Version, r2.Size, a4.Version)
	}
}

// TestCheckpointFailureKeepsCountdown pins the checkpoint-countdown
// fix: a failed snapshot publish must leave the event countdown intact
// (it is consumed only once the snapshot is live), so the retry — with
// no new events logged — succeeds and covers everything.
func TestCheckpointFailureKeepsCountdown(t *testing.T) {
	dir := t.TempDir()
	// The countdown only ticks when automatic checkpoints are enabled;
	// a huge interval keeps the maintainer from ever firing on its own.
	cfg := crashCfg(dir)
	cfg.CheckpointEvery = 1 << 20
	fault := armFault(&cfg)
	m, stop := startDurable(t, cfg)
	crashWorkload(t, m)

	evBefore := m.log.Stats().Uncovered
	if evBefore == 0 {
		t.Fatal("workload logged no events")
	}
	*fault = func(point string) error {
		if point == "tmp-written" {
			return errInjected
		}
		return nil
	}
	if err := m.Checkpoint(); !errors.Is(err, errInjected) {
		t.Fatalf("checkpoint error = %v, want injected", err)
	}
	if n := m.Checkpoints(); n != 0 {
		t.Fatalf("checkpoints after failed publish = %d, want 0", n)
	}
	if ev := m.log.Stats().Uncovered; ev != evBefore {
		t.Fatalf("countdown consumed by failed checkpoint: events = %d, want %d", ev, evBefore)
	}

	*fault = nil
	if err := m.Checkpoint(); err != nil {
		t.Fatalf("checkpoint retry: %v", err)
	}
	if n := m.Checkpoints(); n != 1 {
		t.Fatalf("checkpoints after retry = %d, want 1", n)
	}
	if ev := m.log.Stats().Uncovered; ev != 0 {
		t.Fatalf("countdown not consumed by successful checkpoint: events = %d", ev)
	}

	want := fingerprint(m)
	stop()
	m2, stop2 := startDurable(t, cfg)
	defer stop2()
	if got := fingerprint(m2); !bytes.Equal(got, want) {
		t.Fatal("state after restart differs from checkpointed state")
	}
}
