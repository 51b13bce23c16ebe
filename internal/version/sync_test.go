package version

import (
	"context"
	"errors"
	"testing"
	"time"

	"blobseer/internal/wire"
)

// parkedOn reports how many SYNC waiters sit on version v of the shard.
func parkedOn(sh *blobShard, v wire.Version) int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return len(sh.watchers[v])
}

// eventually polls cond for up to two seconds.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
	}
}

// TestSyncAbandonedByDisconnectWithdraws pins the rpc server's promise —
// a disconnected client cannot strand a blocked handler — for the one
// handler that blocks by design. A SYNC parks on a version whose writer
// never finishes (without DeadWriterTimeout it never resolves); the
// client's connection closes; the handler must return and take its
// watcher entry with it, so Close finds nobody to fail.
func TestSyncAbandonedByDisconnectWithdraws(t *testing.T) {
	r := newRig(t, ManagerConfig{})
	id := r.create()
	r.call(&wire.AssignReq{Blob: id, Size: 10, Append: true}) // v1, abandoned
	sh, err := r.m.shard(id)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- r.callErr(&wire.SyncReq{Blob: id, Version: 1}) }()
	eventually(t, "the SYNC parks", func() bool { return parkedOn(sh, 1) == 1 })

	r.cl.Close() // the client goes away with the SYNC outstanding
	if err := <-done; err == nil {
		t.Fatal("SYNC on an unfinished version succeeded")
	}
	eventually(t, "the abandoned SYNC withdraws its watcher", func() bool {
		sh.mu.Lock()
		defer sh.mu.Unlock()
		return len(sh.watchers) == 0
	})
	// A second SYNC, parked in process, is all Close has left to fail.
	inproc := make(chan error, 1)
	go func() {
		_, err := r.m.Apply(context.Background(), &wire.SyncReq{Blob: id, Version: 1})
		inproc <- err
	}()
	eventually(t, "the in-process SYNC parks", func() bool { return parkedOn(sh, 1) == 1 })
	r.m.Close()
	if err := <-inproc; wire.CodeOf(err) != wire.CodeUnavailable {
		t.Fatalf("parked SYNC at close: %v, want Unavailable", err)
	}
}

// TestSyncCancelRacesPublish lets the version's publication race the
// waiter's cancellation. Whoever wins, the SYNC returns exactly once —
// success or the context's error — nothing fires twice, and no watcher
// entry survives. Run under -race.
func TestSyncCancelRacesPublish(t *testing.T) {
	m := startManager(t, ManagerConfig{})
	id := apply(t, m, &wire.CreateBlobReq{PageSize: 4096}).(*wire.CreateBlobResp).Blob
	sh, err := m.shard(id)
	if err != nil {
		t.Fatal(err)
	}
	var won, lost int
	for i := 0; i < 200; i++ {
		v := apply(t, m, &wire.AssignReq{Blob: id, Size: 8, Append: true}).(*wire.AssignResp).Version
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			_, err := m.Apply(ctx, &wire.SyncReq{Blob: id, Version: v})
			done <- err
		}()
		eventually(t, "the SYNC parks", func() bool { return parkedOn(sh, v) == 1 })
		go cancel()
		apply(t, m, &wire.CompleteReq{Blob: id, Version: v})
		switch err := <-done; {
		case err == nil:
			won++
		case errors.Is(err, context.Canceled):
			lost++
		default:
			t.Fatalf("round %d: SYNC returned %v", i, err)
		}
		if n := parkedOn(sh, v); n != 0 {
			t.Fatalf("round %d: %d watcher(s) left on version %d", i, n, v)
		}
	}
	t.Logf("publish won %d rounds, cancel won %d", won, lost)
}
