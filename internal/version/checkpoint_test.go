package version

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blobseer/internal/obs"
	"blobseer/internal/wire"
)

// TestCheckpointUnderSustainedLoad: writers that never pause, and a
// segment size only the checkpointer's own roll request ever seals. The
// checkpoint still completes within a bound — the leader of a batch in
// flight rolls for it, nobody waits for a quiet moment — and while it
// sits blocked with its tmp file written, ASSIGN and COMPLETE on other
// blobs and on the very blobs being written keep acknowledging: a
// checkpoint folds sealed segments, it holds nothing a handler needs.
func TestCheckpointUnderSustainedLoad(t *testing.T) {
	cfg := ManagerConfig{
		WALPath: filepath.Join(t.TempDir(), "vm.wal"),
		WALSync: true, // leaders sit in fsync: a leader is almost always active
		// WALSegmentBytes left at its 64 MB default: no size roll here.
	}
	fault := armFault(&cfg)
	m, stop := startDurable(t, cfg)
	stopped := false
	defer func() {
		if !stopped {
			stop()
		}
	}()
	const writers = 4
	ids := make([]wire.BlobID, writers+1)
	for i := range ids {
		ids[i] = apply(t, m, &wire.CreateBlobReq{PageSize: 4096}).(*wire.CreateBlobResp).Blob
	}
	idle := ids[writers] // no writer touches it
	cycle := func(id wire.BlobID) error {
		resp, err := m.Apply(context.Background(), &wire.AssignReq{Blob: id, Size: 64, Append: true})
		if err != nil {
			return err
		}
		_, err = m.Apply(context.Background(), &wire.CompleteReq{Blob: id, Version: resp.(*wire.AssignResp).Version})
		return err
	}
	var quit atomic.Bool
	var cycles atomic.Uint64
	var wg sync.WaitGroup
	for wk := 0; wk < writers; wk++ {
		wg.Add(1)
		go func(id wire.BlobID) {
			defer wg.Done()
			for !quit.Load() {
				if err := cycle(id); err != nil {
					t.Errorf("writer on blob %v: %v", id, err)
					return
				}
				cycles.Add(1)
			}
		}(ids[wk])
	}
	defer func() {
		quit.Store(true)
		wg.Wait()
	}()
	for cycles.Load() < 50 {
		time.Sleep(time.Millisecond) // the load is up
	}

	// 1. A checkpoint under that load completes, and it sealed a segment.
	within := func(what string, d time.Duration, fn func() error) {
		t.Helper()
		done := make(chan error, 1)
		go func() { done <- fn() }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		case <-time.After(d):
			t.Fatalf("%s did not finish within %v under sustained load", what, d)
		}
	}
	within("checkpoint", 10*time.Second, m.Checkpoint)
	if segs, err := listSegments(cfg.WALPath); err != nil || len(segs) != 1 || segs[0] < 2 {
		t.Fatalf("segments after the checkpoint = %v (err %v), want only the one it rolled to", segs, err)
	}

	// 2. A second checkpoint blocks at tmp-written; traffic does not.
	entered, release := make(chan struct{}), make(chan struct{})
	// The hook is the checkpointer's: set it between runs.
	*fault = func(point string) error {
		if point == "tmp-written" {
			close(entered)
			<-release
		}
		return nil
	}
	ckpt := make(chan error, 1)
	go func() { ckpt <- m.Checkpoint() }()
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("second checkpoint never reached tmp-written")
	}
	before := cycles.Load()
	within("a cycle on a blob under load, checkpoint blocked", 5*time.Second, func() error { return cycle(ids[0]) })
	within("a cycle on an idle blob, checkpoint blocked", 5*time.Second, func() error { return cycle(idle) })
	for deadline := time.Now().Add(5 * time.Second); cycles.Load() < before+20; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("writers stalled behind the blocked checkpoint: %d cycles in 5s", cycles.Load()-before)
		}
	}
	close(release)
	if err := <-ckpt; err != nil {
		t.Fatalf("blocked checkpoint: %v", err)
	}

	// What the checkpoints folded beside the traffic is what a restart
	// comes up with.
	quit.Store(true)
	wg.Wait()
	want := fingerprint(m)
	stop()
	stopped = true
	m2, stop2 := startDurable(t, cfg)
	defer stop2()
	if got := fingerprint(m2); !bytes.Equal(got, want) {
		t.Fatal("state diverged across a restart after checkpoints under sustained load")
	}
	if r := m2.log.Stats(); !r.SnapshotLoaded {
		t.Fatalf("restart ignored the snapshot: %+v", r)
	}
}

// TestBackgroundCheckpointFailureIsCounted: a checkpoint the background
// checkpointer fails to publish returns its error to nobody, so it is
// counted in the manager's series, exactly once; the countdown it kept
// lets the next nudge checkpoint although one more event is far short
// of CheckpointEvery.
func TestBackgroundCheckpointFailureIsCounted(t *testing.T) {
	failed, published := make(chan struct{}), make(chan struct{})
	tries := 0
	cfg := ManagerConfig{WALPath: filepath.Join(t.TempDir(), "vm.wal"), CheckpointEvery: 4, Fault: func(p string) error {
		if p != "tmp-written" {
			return nil
		}
		if tries++; tries == 1 {
			close(failed)
			return errors.New("injected checkpoint failure")
		}
		close(published)
		return nil
	}}
	m, stop := startDurable(t, cfg)
	create := func() { apply(t, m, &wire.CreateBlobReq{PageSize: 1024}) }
	for range 4 { // the fourth event nudges the first pass
		create()
	}
	<-failed
	create() // its nudge waits for the failing pass to end
	<-published
	stop() // joins the publishing pass
	failures := obs.Value(m, "version_checkpoint_failures_total")
	if n := m.Checkpoints(); failures != 1 || n != 1 || tries != 2 {
		t.Fatalf("%v failed checkpoint passes, %d published, %d publish attempts; want 1, 1, 2", failures, n, tries)
	}
	cfg.Fault = nil
	m2, stop2 := startDurable(t, cfg)
	defer stop2()
	if r := m2.log.Stats(); !r.SnapshotLoaded || r.SnapshotEntries != 5 || r.Replayed != 0 {
		t.Fatalf("restart: %+v, want all 5 blobs from the checkpoint", r)
	}
}

// TestCheckpointNeverOutrunsTheLog pins snapshot ⊆ log across a
// fail-stop wedge. The handlers apply at enqueue, so after a failed
// commit the live state holds an event whose client was told
// "unavailable"; a checkpoint must not persist it. A checkpoint that is
// waiting for the failing leader's roll learns of the wedge instead of
// hanging, later ones are refused outright, and a restart comes up on
// the durable prefix.
func TestCheckpointNeverOutrunsTheLog(t *testing.T) {
	cfg := ManagerConfig{WALPath: filepath.Join(t.TempDir(), "vm.wal"), WALSync: true}
	m, stop := startDurable(t, cfg)
	id := apply(t, m, &wire.CreateBlobReq{PageSize: 4096}).(*wire.CreateBlobResp).Blob
	a1 := apply(t, m, &wire.AssignReq{Blob: id, Size: 100, Append: true}).(*wire.AssignResp)
	apply(t, m, &wire.CompleteReq{Blob: id, Version: a1.Version})
	want := fingerprint(m)

	entered, release := m.log.GateNextCommit()
	lost := make(chan error, 1)
	go func() {
		_, err := m.Apply(context.Background(), &wire.AssignReq{Blob: id, Size: 50, Append: true})
		lost <- err
	}()
	<-entered // the leader is mid-batch: a checkpoint has to ask it to roll
	ckpt := make(chan error, 1)
	go func() { ckpt <- m.Checkpoint() }()
	for !m.log.SealWaiting() {
		time.Sleep(time.Millisecond)
	}
	release <- errInjected
	if err := <-lost; wire.CodeOf(err) != wire.CodeUnavailable {
		t.Fatalf("assign over a failing log: %v, want Unavailable", err)
	}
	select {
	case err := <-ckpt:
		if err == nil {
			t.Fatal("a checkpoint waiting for a roll survived the wedge")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("checkpoint still waits for a roll the wedged leader will never do")
	}
	if bytes.Equal(fingerprint(m), want) {
		t.Fatal("the refused assign left no trace in memory: the test proves nothing")
	}
	if err := m.Checkpoint(); err == nil {
		t.Fatal("checkpoint of a wedged log succeeded")
	}
	if n := m.Checkpoints(); n != 0 {
		t.Fatalf("checkpoints completed on a wedged log: %d", n)
	}
	stop()
	m2, stop2 := startDurable(t, cfg)
	defer stop2()
	if got := fingerprint(m2); !bytes.Equal(got, want) {
		t.Fatal("restart after the wedge is not the durable prefix")
	}
}
