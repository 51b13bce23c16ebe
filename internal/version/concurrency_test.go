package version

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"blobseer/internal/obs"
	"blobseer/internal/transport"
	"blobseer/internal/wire"
)

// apply is a test shorthand for in-process dispatch.
func apply(t *testing.T, m *Manager, req wire.Msg) wire.Msg {
	t.Helper()
	resp, err := m.Apply(context.Background(), req)
	if err != nil {
		t.Fatalf("%v: %v", req.Kind(), err)
	}
	return resp
}

func startManager(t *testing.T, cfg ManagerConfig) *Manager {
	t.Helper()
	net := transport.NewInproc()
	ln, err := net.Listen("vm")
	if err != nil {
		t.Fatal(err)
	}
	m, err := ServeManagerDurable(ln, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		m.Close()
		net.Close()
	})
	return m
}

// TestInFlightEncodingIsDeterministic pins the fix for map-iteration order
// leaking into AssignResp.InFlight on the wire: the border set must be
// sorted by version, and two identical histories must encode identically.
func TestInFlightEncodingIsDeterministic(t *testing.T) {
	encodeLast := func() []byte {
		m := startManager(t, ManagerConfig{})
		id := apply(t, m, &wire.CreateBlobReq{PageSize: 4096}).(*wire.CreateBlobResp).Blob
		// Pile up enough in-flight updates that map iteration order would
		// almost surely differ between runs if it leaked.
		for i := 0; i < 16; i++ {
			apply(t, m, &wire.AssignReq{Blob: id, Size: uint64(100 + i), Append: true})
		}
		resp := apply(t, m, &wire.AssignReq{Blob: id, Size: 1, Append: true}).(*wire.AssignResp)
		if len(resp.InFlight) != 16 {
			t.Fatalf("in-flight count = %d, want 16", len(resp.InFlight))
		}
		for i := range resp.InFlight {
			if want := wire.Version(i + 1); resp.InFlight[i].Version != want {
				t.Fatalf("in-flight[%d].Version = %d, want %d (not sorted)",
					i, resp.InFlight[i].Version, want)
			}
		}
		w := wire.NewWriter(512)
		resp.MarshalTo(w)
		return append([]byte(nil), w.Bytes()...)
	}
	first := encodeLast()
	for i := 0; i < 3; i++ {
		if got := encodeLast(); !bytes.Equal(got, first) {
			t.Fatalf("run %d encoded differently:\n%x\n%x", i+2, got, first)
		}
	}
}

// TestManagerCloseIdempotent covers the double-close paths: Close twice
// without a WAL, Close twice with one, and closing a nil wal directly.
func TestManagerCloseIdempotent(t *testing.T) {
	m := startManager(t, ManagerConfig{})
	apply(t, m, &wire.CreateBlobReq{PageSize: 4096})
	m.Close()
	m.Close() // must not panic or double-close anything

	dir := t.TempDir()
	md := startManager(t, ManagerConfig{WALPath: filepath.Join(dir, "vm.wal"), WALSync: true})
	apply(t, md, &wire.CreateBlobReq{PageSize: 4096})
	md.Close()
	md.Close()

	var w *wal
	if err := w.close(); err != nil {
		t.Fatalf("nil wal close: %v", err)
	}
	w2, _, err := openWAL(filepath.Join(dir, "other.wal"), walOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.close(); err != nil {
		t.Fatal(err)
	}
	if err := w2.close(); err != nil {
		t.Fatalf("second wal close: %v", err)
	}
	// Appends after close fail instead of writing to a dead file.
	if err := w2.append(walEvent{kind: walCreate, blob: 1, pageSize: 512}); err == nil {
		t.Fatal("append after close succeeded")
	}
}

// TestManagerCloseAfterCloseReleasesNothingTwice parks a SYNC waiter,
// closes twice, and checks the waiter fails exactly once with Unavailable.
func TestManagerCloseFailsParkedSyncOnce(t *testing.T) {
	m := startManager(t, ManagerConfig{})
	id := apply(t, m, &wire.CreateBlobReq{PageSize: 4096}).(*wire.CreateBlobResp).Blob
	apply(t, m, &wire.AssignReq{Blob: id, Size: 10, Append: true})
	done := make(chan error, 1)
	go func() {
		_, err := m.Apply(context.Background(), &wire.SyncReq{Blob: id, Version: 1})
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	m.Close()
	m.Close()
	select {
	case err := <-done:
		if wire.CodeOf(err) != wire.CodeUnavailable {
			t.Fatalf("parked SYNC err = %v, want Unavailable", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("parked SYNC leaked through close")
	}
	// A SYNC arriving after close fails fast instead of parking forever.
	if _, err := m.Apply(context.Background(), &wire.SyncReq{Blob: id, Version: 1}); err == nil {
		t.Fatal("SYNC after close succeeded")
	}
}

// TestWALGroupCommitBatches pins the group-commit mechanics
// deterministically: with a leader marked active, concurrent appends
// queue up, and one lead() pass commits all of them with a single fsync.
func TestWALGroupCommitBatches(t *testing.T) {
	path := filepath.Join(t.TempDir(), "vm.wal")
	w, _, err := openWAL(path, walOptions{fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()

	// Pretend a leader is mid-commit so appenders can only enqueue.
	w.mu.Lock()
	w.comm.SetLeadingLocked(true)
	w.mu.Unlock()

	const n = 5
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			errs <- w.append(walEvent{kind: walCreate, blob: wire.BlobID(i + 1), pageSize: 512})
		}(i)
	}
	for {
		w.mu.Lock()
		queued := w.comm.QueueLenLocked()
		w.mu.Unlock()
		if queued == n {
			break
		}
		runtime.Gosched()
	}
	// Stand in for the returning leader: drain the whole queue as one batch.
	w.mu.Lock()
	if err := w.comm.CaretakeLocked(); err != nil {
		t.Fatalf("caretake: %v", err)
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("batched append: %v", err)
		}
	}
	appends, syncs := w.appends.Load(), w.syncs.Load()
	if appends != n {
		t.Fatalf("appends = %d, want %d", appends, n)
	}
	if syncs != 1 {
		t.Fatalf("syncs = %d, want 1 (group commit)", syncs)
	}
	// All records actually landed: the log replays n creates.
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	w2, rec, err := openWAL(path, walOptions{})
	if err == nil {
		defer w2.close()
	}
	if err != nil || len(rec.events) != n {
		t.Fatalf("reopen: %d events, err %v; want %d", len(rec.events), err, n)
	}
}

// TestWALCloseFailsQueuedAppends checks shutdown while appends are parked
// behind a leader: queued-but-untaken records fail with a clean error.
func TestWALCloseFailsQueuedAppends(t *testing.T) {
	w, _, err := openWAL(filepath.Join(t.TempDir(), "vm.wal"), walOptions{})
	if err != nil {
		t.Fatal(err)
	}
	w.mu.Lock()
	w.comm.SetLeadingLocked(true) // no real leader will ever drain
	w.mu.Unlock()
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() { errs <- w.append(walEvent{kind: walCreate, blob: 9, pageSize: 512}) }()
	}
	for {
		w.mu.Lock()
		queued := w.comm.QueueLenLocked()
		w.mu.Unlock()
		if queued == 2 {
			break
		}
		runtime.Gosched()
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; err == nil {
			t.Fatal("append parked at close reported success")
		}
	}
}

// TestWALTornBatchTailRestartsCleanly crashes a durable manager by tearing
// the log mid-record (as a crash between a batch's write and its sync
// would), restarts on the torn file, and checks the state is exactly the
// durable prefix — then keeps going.
func TestWALTornBatchTailRestartsCleanly(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "vm.wal")
	net := transport.NewInproc()
	defer net.Close()
	ln, err := net.Listen("vm1")
	if err != nil {
		t.Fatal(err)
	}
	m, err := ServeManagerDurable(ln, ManagerConfig{WALPath: path, WALSync: true})
	if err != nil {
		t.Fatal(err)
	}
	id := apply(t, m, &wire.CreateBlobReq{PageSize: 1024}).(*wire.CreateBlobResp).Blob
	a1 := apply(t, m, &wire.AssignReq{Blob: id, Size: 1000, Append: true}).(*wire.AssignResp)
	apply(t, m, &wire.CompleteReq{Blob: id, Version: a1.Version})
	apply(t, m, &wire.AssignReq{Blob: id, Size: 500, Append: true}) // will be torn away
	m.Close()

	// Tear into the middle of the final record of the active segment.
	seg := segmentPath(path, 1)
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, raw[:len(raw)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	ln2, err := net.Listen("vm2")
	if err != nil {
		t.Fatal(err)
	}
	m2, err := ServeManagerDurable(ln2, ManagerConfig{WALPath: path, WALSync: true})
	if err != nil {
		t.Fatalf("restart on torn log: %v", err)
	}
	defer m2.Close()
	rec := apply(t, m2, &wire.RecentReq{Blob: id}).(*wire.RecentResp)
	if rec.Version != 1 || rec.Size != 1000 {
		t.Fatalf("recent after torn restart = %+v, want v1/1000", rec)
	}
	// The torn assign never happened: version 2 is assigned afresh, and the
	// repaired log replays once more without complaint.
	a2 := apply(t, m2, &wire.AssignReq{Blob: id, Size: 500, Append: true}).(*wire.AssignResp)
	if a2.Version != 2 || a2.Offset != 1000 {
		t.Fatalf("assign after torn restart = %+v", a2)
	}
	apply(t, m2, &wire.CompleteReq{Blob: id, Version: a2.Version})
	m2.Close()
	ln3, err := net.Listen("vm3")
	if err != nil {
		t.Fatal(err)
	}
	m3, err := ServeManagerDurable(ln3, ManagerConfig{WALPath: path})
	if err != nil {
		t.Fatalf("second restart: %v", err)
	}
	defer m3.Close()
	rec = apply(t, m3, &wire.RecentReq{Blob: id}).(*wire.RecentResp)
	if rec.Version != 2 || rec.Size != 1500 {
		t.Fatalf("recent after second restart = %+v, want v2/1500", rec)
	}
}

// TestConcurrentMultiBlobStress hammers assign/complete/abort/branch/sync
// across many blobs from many goroutines. Run under -race it checks the
// sharded locking regime; the final sweep checks cross-blob invariants.
func TestConcurrentMultiBlobStress(t *testing.T) {
	for _, durable := range []bool{false, true} {
		name := "mem"
		cfg := ManagerConfig{}
		if durable {
			name = "wal"
			cfg.WALPath = filepath.Join(t.TempDir(), "vm.wal")
			cfg.WALSync = true
		}
		t.Run(name, func(t *testing.T) {
			m := startManager(t, cfg)
			ctx := context.Background()
			const blobs = 8
			const workers = 16
			iters := 60
			if testing.Short() {
				iters = 15
			}
			ids := make([]wire.BlobID, blobs)
			for i := range ids {
				ids[i] = apply(t, m, &wire.CreateBlobReq{PageSize: 4096}).(*wire.CreateBlobResp).Blob
			}
			var wg sync.WaitGroup
			errc := make(chan error, workers)
			for wk := 0; wk < workers; wk++ {
				wg.Add(1)
				go func(wk int) {
					defer wg.Done()
					id := ids[wk%blobs]
					for i := 0; i < iters; i++ {
						resp, err := m.Apply(ctx, &wire.AssignReq{Blob: id, Size: uint64(1 + (wk+i)%512), Append: true})
						if err != nil {
							errc <- fmt.Errorf("worker %d assign: %v", wk, err)
							return
						}
						v := resp.(*wire.AssignResp).Version
						switch (wk + i) % 4 {
						case 0, 1, 2:
							_, err = m.Apply(ctx, &wire.CompleteReq{Blob: id, Version: v})
						case 3:
							_, err = m.Apply(ctx, &wire.AbortReq{Blob: id, Version: v})
						}
						// A concurrent worker's abort may cascade over our
						// version between assign and complete; both outcomes
						// are legal, anything else is a bug.
						if err != nil && wire.CodeOf(err) != wire.CodeAborted {
							errc <- fmt.Errorf("worker %d finish v%d: %v", wk, v, err)
							return
						}
						if i%8 == 0 {
							if _, err := m.Apply(ctx, &wire.RecentReq{Blob: id}); err != nil {
								errc <- fmt.Errorf("worker %d recent: %v", wk, err)
								return
							}
						}
					}
				}(wk)
			}
			wg.Wait()
			close(errc)
			for err := range errc {
				t.Error(err)
			}
			// Quiesce: every blob must end with a coherent state machine.
			for _, id := range ids {
				sh, err := m.shard(id)
				if err != nil {
					t.Fatal(err)
				}
				sh.mu.Lock()
				b := sh.state
				if b.readable > b.published || b.published >= b.next {
					t.Errorf("blob %v: readable %d published %d next %d", id, b.readable, b.published, b.next)
				}
				sh.mu.Unlock()
			}
			if durable {
				appends, syncs := obs.Value(m, "version_wal_appends_total"), obs.Value(m, "version_wal_syncs_total")
				if appends == 0 {
					t.Fatal("durable stress logged nothing")
				}
				if syncs > appends {
					t.Errorf("fsyncs %v exceed appends %v", syncs, appends)
				}
			}
		})
	}
}

// TestConcurrentStressSurvivesRestart runs the stress with a WAL, then
// replays the log and checks the replayed state matches what the live
// manager reported per blob.
func TestConcurrentStressSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "vm.wal")
	net := transport.NewInproc()
	defer net.Close()
	ln, err := net.Listen("vm1")
	if err != nil {
		t.Fatal(err)
	}
	m, err := ServeManagerDurable(ln, ManagerConfig{WALPath: path, WALSync: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const blobs = 4
	const workers = 8
	ids := make([]wire.BlobID, blobs)
	for i := range ids {
		ids[i] = apply(t, m, &wire.CreateBlobReq{PageSize: 4096}).(*wire.CreateBlobResp).Blob
	}
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			id := ids[wk%blobs]
			for i := 0; i < 30; i++ {
				resp, err := m.Apply(ctx, &wire.AssignReq{Blob: id, Size: 64, Append: true})
				if err != nil {
					t.Errorf("assign: %v", err)
					return
				}
				v := resp.(*wire.AssignResp).Version
				if _, err := m.Apply(ctx, &wire.CompleteReq{Blob: id, Version: v}); err != nil {
					t.Errorf("complete: %v", err)
					return
				}
			}
		}(wk)
	}
	wg.Wait()
	want := make(map[wire.BlobID]*wire.RecentResp)
	for _, id := range ids {
		want[id] = apply(t, m, &wire.RecentReq{Blob: id}).(*wire.RecentResp)
	}
	m.Close()

	ln2, err := net.Listen("vm2")
	if err != nil {
		t.Fatal(err)
	}
	m2, err := ServeManagerDurable(ln2, ManagerConfig{WALPath: path})
	if err != nil {
		t.Fatalf("restart after stress: %v", err)
	}
	defer m2.Close()
	for _, id := range ids {
		rec := apply(t, m2, &wire.RecentReq{Blob: id}).(*wire.RecentResp)
		if rec.Version != want[id].Version || rec.Size != want[id].Size {
			t.Errorf("blob %v after restart: %+v, want %+v", id, rec, want[id])
		}
	}
}

// TestBranchAcrossShardsUnderLoad branches while the parent is being
// written concurrently: the lineage size resolution takes a second shard
// lock (child -> ancestor), which must never deadlock.
func TestBranchAcrossShardsUnderLoad(t *testing.T) {
	m := startManager(t, ManagerConfig{})
	ctx := context.Background()
	id := apply(t, m, &wire.CreateBlobReq{PageSize: 4096}).(*wire.CreateBlobResp).Blob
	a := apply(t, m, &wire.AssignReq{Blob: id, Size: 100, Append: true}).(*wire.AssignResp)
	apply(t, m, &wire.CompleteReq{Blob: id, Version: a.Version})

	var wg sync.WaitGroup
	var mu sync.Mutex
	var branches []wire.BlobID
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				resp, err := m.Apply(ctx, &wire.BranchReq{Blob: id, Version: 1})
				if err != nil {
					t.Errorf("branch: %v", err)
					return
				}
				bid := resp.(*wire.BranchResp).NewBlob
				mu.Lock()
				branches = append(branches, bid)
				mu.Unlock()
				// Immediately read through the lineage (locks the ancestor).
				if _, err := m.Apply(ctx, &wire.RecentReq{Blob: bid}); err != nil {
					t.Errorf("recent on branch: %v", err)
					return
				}
			}
		}()
	}
	// Keep the parent busy meanwhile.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			resp, err := m.Apply(ctx, &wire.AssignReq{Blob: id, Size: 10, Append: true})
			if err != nil {
				t.Errorf("parent assign: %v", err)
				return
			}
			if _, err := m.Apply(ctx, &wire.CompleteReq{Blob: id, Version: resp.(*wire.AssignResp).Version}); err != nil {
				t.Errorf("parent complete: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	seen := make(map[wire.BlobID]bool)
	for _, bid := range branches {
		if seen[bid] {
			t.Fatalf("duplicate branch id %v", bid)
		}
		seen[bid] = true
		rec := apply(t, m, &wire.RecentReq{Blob: bid}).(*wire.RecentResp)
		if rec.Version != 1 || rec.Size != 100 {
			t.Fatalf("branch %v recent = %+v", bid, rec)
		}
	}
}
