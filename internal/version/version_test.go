package version

import (
	"context"
	"testing"
	"time"

	"blobseer/internal/obs"
	"blobseer/internal/rpc"
	"blobseer/internal/simnet"
	"blobseer/internal/transport"
	"blobseer/internal/vclock"
	"blobseer/internal/wire"
)

// rig runs a version manager over an in-process transport.
type rig struct {
	t  *testing.T
	cl *rpc.Client
	m  *Manager
}

func newRig(t *testing.T, cfg ManagerConfig) *rig {
	t.Helper()
	net := transport.NewInproc()
	sched := vclock.NewReal()
	if cfg.Sched == nil {
		cfg.Sched = sched
	}
	ln, err := net.Listen("vm")
	if err != nil {
		t.Fatal(err)
	}
	m := ServeManager(ln, cfg)
	cl := rpc.NewClient(net, sched, rpc.ClientOptions{ConnsPerHost: 2})
	t.Cleanup(func() {
		cl.Close()
		m.Close()
		net.Close()
	})
	return &rig{t: t, cl: cl, m: m}
}

func (r *rig) call(req wire.Msg) wire.Msg {
	r.t.Helper()
	resp, err := r.cl.Call(context.Background(), "vm", req)
	if err != nil {
		r.t.Fatalf("%v: %v", req.Kind(), err)
	}
	return resp
}

func (r *rig) callErr(req wire.Msg) error {
	r.t.Helper()
	_, err := r.cl.Call(context.Background(), "vm", req)
	return err
}

func (r *rig) create() wire.BlobID {
	return r.call(&wire.CreateBlobReq{PageSize: 4096}).(*wire.CreateBlobResp).Blob
}

func TestCreateBlobAssignsUniqueIDs(t *testing.T) {
	r := newRig(t, ManagerConfig{})
	a, b := r.create(), r.create()
	if a == b {
		t.Fatalf("duplicate blob ids: %v", a)
	}
	info := r.call(&wire.BlobInfoReq{Blob: a}).(*wire.BlobInfoResp)
	if info.PageSize != 4096 {
		t.Fatalf("page size %d", info.PageSize)
	}
	if len(info.Lineage) != 1 || info.Lineage[0].Blob != a || info.Lineage[0].MinVersion != 0 {
		t.Fatalf("lineage %v", info.Lineage)
	}
}

func TestCreateBlobRejectsBadPageSize(t *testing.T) {
	r := newRig(t, ManagerConfig{})
	for _, ps := range []uint32{0, 3, 100, 4097} {
		err := r.callErr(&wire.CreateBlobReq{PageSize: ps})
		if wire.CodeOf(err) != wire.CodeBadRequest {
			t.Errorf("page size %d: err = %v", ps, err)
		}
	}
}

func TestBlobInfoUnknownBlob(t *testing.T) {
	r := newRig(t, ManagerConfig{})
	if err := r.callErr(&wire.BlobInfoReq{Blob: 99}); !wire.IsNotFound(err) {
		t.Fatalf("err = %v", err)
	}
}

func TestAssignCompletePublishCycle(t *testing.T) {
	r := newRig(t, ManagerConfig{})
	id := r.create()

	// Empty blob: recent is version 0, size 0.
	rec := r.call(&wire.RecentReq{Blob: id}).(*wire.RecentResp)
	if rec.Version != 0 || rec.Size != 0 {
		t.Fatalf("initial recent = %+v", rec)
	}

	a := r.call(&wire.AssignReq{Blob: id, Offset: 0, Size: 1000}).(*wire.AssignResp)
	if a.Version != 1 || a.Offset != 0 || a.NewSize != 1000 || a.Published != 0 {
		t.Fatalf("assign = %+v", a)
	}
	// Not yet published.
	rec = r.call(&wire.RecentReq{Blob: id}).(*wire.RecentResp)
	if rec.Version != 0 {
		t.Fatalf("recent before complete = %d", rec.Version)
	}
	r.call(&wire.CompleteReq{Blob: id, Version: 1})
	rec = r.call(&wire.RecentReq{Blob: id}).(*wire.RecentResp)
	if rec.Version != 1 || rec.Size != 1000 {
		t.Fatalf("recent after complete = %+v", rec)
	}
	sz := r.call(&wire.SizeReq{Blob: id, Version: 1}).(*wire.SizeResp)
	if sz.Size != 1000 {
		t.Fatalf("size = %d", sz.Size)
	}
}

func TestAppendOffsetsAreContiguous(t *testing.T) {
	r := newRig(t, ManagerConfig{})
	id := r.create()
	// Three appends assigned before any completes: offsets must stack.
	a1 := r.call(&wire.AssignReq{Blob: id, Size: 100, Append: true}).(*wire.AssignResp)
	a2 := r.call(&wire.AssignReq{Blob: id, Size: 50, Append: true}).(*wire.AssignResp)
	a3 := r.call(&wire.AssignReq{Blob: id, Size: 25, Append: true}).(*wire.AssignResp)
	if a1.Offset != 0 || a2.Offset != 100 || a3.Offset != 150 {
		t.Fatalf("append offsets = %d,%d,%d", a1.Offset, a2.Offset, a3.Offset)
	}
	if a3.NewSize != 175 {
		t.Fatalf("newSize = %d", a3.NewSize)
	}
	// In-flight lists grow with each assignment.
	if len(a1.InFlight) != 0 || len(a2.InFlight) != 1 || len(a3.InFlight) != 2 {
		t.Fatalf("in-flight sizes = %d,%d,%d", len(a1.InFlight), len(a2.InFlight), len(a3.InFlight))
	}
	if a3.InFlight[0].Version > a3.InFlight[1].Version {
		// Order is unspecified; just check contents.
		a3.InFlight[0], a3.InFlight[1] = a3.InFlight[1], a3.InFlight[0]
	}
	if a3.InFlight[0] != (wire.UpdateDesc{Version: 1, Offset: 0, Size: 100}) ||
		a3.InFlight[1] != (wire.UpdateDesc{Version: 2, Offset: 100, Size: 50}) {
		t.Fatalf("in-flight = %+v", a3.InFlight)
	}
}

func TestPublicationIsTotallyOrdered(t *testing.T) {
	r := newRig(t, ManagerConfig{})
	id := r.create()
	r.call(&wire.AssignReq{Blob: id, Size: 10, Append: true}) // v1
	r.call(&wire.AssignReq{Blob: id, Size: 10, Append: true}) // v2
	// v2 completes first but must wait for v1.
	r.call(&wire.CompleteReq{Blob: id, Version: 2})
	rec := r.call(&wire.RecentReq{Blob: id}).(*wire.RecentResp)
	if rec.Version != 0 {
		t.Fatalf("v2 published before v1: recent = %d", rec.Version)
	}
	r.call(&wire.CompleteReq{Blob: id, Version: 1})
	rec = r.call(&wire.RecentReq{Blob: id}).(*wire.RecentResp)
	if rec.Version != 2 || rec.Size != 20 {
		t.Fatalf("after both complete: %+v", rec)
	}
}

func TestWriteValidation(t *testing.T) {
	r := newRig(t, ManagerConfig{})
	id := r.create()
	// Offset beyond current size fails (§2.1).
	err := r.callErr(&wire.AssignReq{Blob: id, Offset: 1, Size: 10})
	if !wire.IsOutOfBounds(err) {
		t.Fatalf("err = %v", err)
	}
	// Empty update fails.
	err = r.callErr(&wire.AssignReq{Blob: id, Offset: 0, Size: 0})
	if wire.CodeOf(err) != wire.CodeBadRequest {
		t.Fatalf("err = %v", err)
	}
	// Write at exactly the size boundary is an append-like extension.
	r.call(&wire.AssignReq{Blob: id, Size: 10, Append: true})
	a := r.call(&wire.AssignReq{Blob: id, Offset: 10, Size: 5}).(*wire.AssignResp)
	if a.NewSize != 15 {
		t.Fatalf("extension newSize = %d", a.NewSize)
	}
}

func TestSizeOfUnpublishedVersionFails(t *testing.T) {
	r := newRig(t, ManagerConfig{})
	id := r.create()
	r.call(&wire.AssignReq{Blob: id, Size: 10, Append: true})
	err := r.callErr(&wire.SizeReq{Blob: id, Version: 1})
	if !wire.IsNotPublished(err) {
		t.Fatalf("err = %v", err)
	}
}

func TestSyncBlocksUntilPublish(t *testing.T) {
	r := newRig(t, ManagerConfig{})
	id := r.create()
	r.call(&wire.AssignReq{Blob: id, Size: 10, Append: true})

	done := make(chan error, 1)
	go func() {
		done <- r.callErr(&wire.SyncReq{Blob: id, Version: 1})
	}()
	select {
	case err := <-done:
		t.Fatalf("SYNC returned before publish: %v", err)
	case <-time.After(30 * time.Millisecond):
	}
	r.call(&wire.CompleteReq{Blob: id, Version: 1})
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("SYNC: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("SYNC did not return after publish")
	}

	// SYNC on an already-published version returns immediately.
	if err := r.callErr(&wire.SyncReq{Blob: id, Version: 1}); err != nil {
		t.Fatal(err)
	}
	// SYNC on a never-assigned version errors rather than hanging.
	if err := r.callErr(&wire.SyncReq{Blob: id, Version: 99}); !wire.IsNotFound(err) {
		t.Fatalf("err = %v", err)
	}
}

func TestAbortCascadesToLaterInflight(t *testing.T) {
	r := newRig(t, ManagerConfig{})
	id := r.create()
	r.call(&wire.AssignReq{Blob: id, Size: 10, Append: true}) // v1
	r.call(&wire.AssignReq{Blob: id, Size: 10, Append: true}) // v2
	r.call(&wire.AssignReq{Blob: id, Size: 10, Append: true}) // v3
	r.call(&wire.CompleteReq{Blob: id, Version: 1})

	// Abort v2: v3 must die with it (it may reference v2 and sits above
	// v2's pages).
	r.call(&wire.AbortReq{Blob: id, Version: 2})
	if err := r.callErr(&wire.CompleteReq{Blob: id, Version: 3}); wire.CodeOf(err) != wire.CodeAborted {
		t.Fatalf("complete of cascade-aborted v3: %v", err)
	}
	// Size rolls back to v1's; the next append reuses the space.
	a := r.call(&wire.AssignReq{Blob: id, Size: 7, Append: true}).(*wire.AssignResp)
	if a.Offset != 10 {
		t.Fatalf("append after abort at offset %d, want 10", a.Offset)
	}
	if a.Version != 4 {
		t.Fatalf("version after abort = %d, want 4 (no reuse)", a.Version)
	}
	// Publication passes over the aborted versions once v4 completes.
	r.call(&wire.CompleteReq{Blob: id, Version: 4})
	rec := r.call(&wire.RecentReq{Blob: id}).(*wire.RecentResp)
	if rec.Version != 4 || rec.Size != 17 {
		t.Fatalf("recent after skip-publish = %+v", rec)
	}
	// Aborted versions stay unreadable.
	if err := r.callErr(&wire.SizeReq{Blob: id, Version: 2}); !wire.IsNotPublished(err) {
		t.Fatalf("size of aborted = %v", err)
	}
}

func TestAbortPublishedVersionFails(t *testing.T) {
	r := newRig(t, ManagerConfig{})
	id := r.create()
	r.call(&wire.AssignReq{Blob: id, Size: 10, Append: true})
	r.call(&wire.CompleteReq{Blob: id, Version: 1})
	if err := r.callErr(&wire.AbortReq{Blob: id, Version: 1}); wire.CodeOf(err) != wire.CodeBadRequest {
		t.Fatalf("err = %v", err)
	}
}

func TestSyncOnAbortedVersionFails(t *testing.T) {
	r := newRig(t, ManagerConfig{})
	id := r.create()
	r.call(&wire.AssignReq{Blob: id, Size: 10, Append: true})

	done := make(chan error, 1)
	go func() { done <- r.callErr(&wire.SyncReq{Blob: id, Version: 1}) }()
	time.Sleep(20 * time.Millisecond) // let the waiter park
	r.call(&wire.AbortReq{Blob: id, Version: 1})
	select {
	case err := <-done:
		if wire.CodeOf(err) != wire.CodeAborted {
			t.Fatalf("parked SYNC err = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("parked SYNC not released by abort")
	}
	// A fresh SYNC on the aborted version fails immediately.
	if err := r.callErr(&wire.SyncReq{Blob: id, Version: 1}); wire.CodeOf(err) != wire.CodeAborted {
		t.Fatalf("late SYNC err = %v", err)
	}
}

func TestBranchSharesHistory(t *testing.T) {
	r := newRig(t, ManagerConfig{})
	id := r.create()
	r.call(&wire.AssignReq{Blob: id, Size: 100, Append: true})
	r.call(&wire.CompleteReq{Blob: id, Version: 1})
	r.call(&wire.AssignReq{Blob: id, Size: 100, Append: true})
	r.call(&wire.CompleteReq{Blob: id, Version: 2})

	bid := r.call(&wire.BranchReq{Blob: id, Version: 1}).(*wire.BranchResp).NewBlob
	if bid == id {
		t.Fatal("branch returned the same blob")
	}
	info := r.call(&wire.BlobInfoReq{Blob: bid}).(*wire.BlobInfoResp)
	if len(info.Lineage) != 2 || info.Lineage[0].Blob != bid || info.Lineage[0].MinVersion != 2 ||
		info.Lineage[1].Blob != id {
		t.Fatalf("branch lineage = %v", info.Lineage)
	}
	// The branch sees version 1 and its size through the lineage.
	rec := r.call(&wire.RecentReq{Blob: bid}).(*wire.RecentResp)
	if rec.Version != 1 || rec.Size != 100 {
		t.Fatalf("branch recent = %+v", rec)
	}
	sz := r.call(&wire.SizeReq{Blob: bid, Version: 1}).(*wire.SizeResp)
	if sz.Size != 100 {
		t.Fatalf("branch size(1) = %d", sz.Size)
	}
	// Parent's version 2 is NOT part of the branch: its next assign is 2.
	a := r.call(&wire.AssignReq{Blob: bid, Size: 10, Append: true}).(*wire.AssignResp)
	if a.Version != 2 || a.Offset != 100 {
		t.Fatalf("branch assign = %+v", a)
	}
	// The two blobs evolve independently.
	r.call(&wire.CompleteReq{Blob: bid, Version: 2})
	recB := r.call(&wire.RecentReq{Blob: bid}).(*wire.RecentResp)
	recP := r.call(&wire.RecentReq{Blob: id}).(*wire.RecentResp)
	if recB.Size != 110 || recP.Size != 200 {
		t.Fatalf("divergence: branch %d, parent %d", recB.Size, recP.Size)
	}
}

func TestBranchOfBranch(t *testing.T) {
	r := newRig(t, ManagerConfig{})
	id := r.create()
	r.call(&wire.AssignReq{Blob: id, Size: 10, Append: true})
	r.call(&wire.CompleteReq{Blob: id, Version: 1})
	b1 := r.call(&wire.BranchReq{Blob: id, Version: 1}).(*wire.BranchResp).NewBlob
	r.call(&wire.AssignReq{Blob: b1, Size: 10, Append: true}) // v2 on b1
	r.call(&wire.CompleteReq{Blob: b1, Version: 2})
	b2 := r.call(&wire.BranchReq{Blob: b1, Version: 2}).(*wire.BranchResp).NewBlob
	info := r.call(&wire.BlobInfoReq{Blob: b2}).(*wire.BlobInfoResp)
	if len(info.Lineage) != 3 {
		t.Fatalf("grandchild lineage = %v", info.Lineage)
	}
	// Branch below the parent's own first version: lineage skips b1.
	b3 := r.call(&wire.BranchReq{Blob: b1, Version: 1}).(*wire.BranchResp).NewBlob
	info = r.call(&wire.BlobInfoReq{Blob: b3}).(*wire.BlobInfoResp)
	if len(info.Lineage) != 2 || info.Lineage[1].Blob != id {
		t.Fatalf("sibling branch lineage = %v", info.Lineage)
	}
}

func TestBranchAtUnpublishedVersionFails(t *testing.T) {
	r := newRig(t, ManagerConfig{})
	id := r.create()
	r.call(&wire.AssignReq{Blob: id, Size: 10, Append: true})
	if err := r.callErr(&wire.BranchReq{Blob: id, Version: 1}); !wire.IsNotPublished(err) {
		t.Fatalf("err = %v", err)
	}
	// Branching the empty snapshot 0 is legal.
	bid := r.call(&wire.BranchReq{Blob: id, Version: 0}).(*wire.BranchResp).NewBlob
	rec := r.call(&wire.RecentReq{Blob: bid}).(*wire.RecentResp)
	if rec.Version != 0 || rec.Size != 0 {
		t.Fatalf("empty branch recent = %+v", rec)
	}
}

func TestCompleteUnknownVersion(t *testing.T) {
	r := newRig(t, ManagerConfig{})
	id := r.create()
	if err := r.callErr(&wire.CompleteReq{Blob: id, Version: 5}); !wire.IsNotFound(err) {
		t.Fatalf("err = %v", err)
	}
}

func TestDeadWriterSweeper(t *testing.T) {
	// Run under the virtual clock over simnet for determinism.
	clock := vclock.NewVirtual(0)
	net := simnet.New(clock, simnet.Config{})
	err := clock.Run(func() {
		ln, err := net.Host("vm").Listen("vm")
		if err != nil {
			t.Error(err)
			return
		}
		m := ServeManager(ln, ManagerConfig{
			Sched:             clock,
			DeadWriterTimeout: 2 * time.Second,
		})
		defer m.Close()
		cl := rpc.NewClient(net.Host("client"), clock, rpc.ClientOptions{})
		defer cl.Close()
		ctx := context.Background()

		resp, err := cl.Call(ctx, "vm:vm", &wire.CreateBlobReq{PageSize: 4096})
		if err != nil {
			t.Error(err)
			return
		}
		id := resp.(*wire.CreateBlobResp).Blob
		// v1 never completes; v2 completes promptly.
		if _, err := cl.Call(ctx, "vm:vm", &wire.AssignReq{Blob: id, Size: 10, Append: true}); err != nil {
			t.Error(err)
			return
		}
		if _, err := cl.Call(ctx, "vm:vm", &wire.AssignReq{Blob: id, Size: 10, Append: true}); err != nil {
			t.Error(err)
			return
		}
		// v2 cannot publish while v1 is pending...
		if _, err := cl.Call(ctx, "vm:vm", &wire.CompleteReq{Blob: id, Version: 2}); err != nil {
			t.Error(err)
			return
		}
		rec, _ := cl.Call(ctx, "vm:vm", &wire.RecentReq{Blob: id})
		if rec.(*wire.RecentResp).Version != 0 {
			t.Errorf("published before sweep: %+v", rec)
		}
		// ...until the sweeper declares v1's writer dead. The cascade also
		// kills v2 (it may reference v1), so the blob returns to version 0.
		clock.Sleep(5 * time.Second)
		rec, err = cl.Call(ctx, "vm:vm", &wire.RecentReq{Blob: id})
		if err != nil {
			t.Error(err)
			return
		}
		if got := rec.(*wire.RecentResp); got.Version != 0 || got.Size != 0 {
			t.Errorf("after sweep: %+v", got)
		}
		// One writer was declared dead; v2's abort is its cascade.
		if n := obs.Value(m, "version_dead_writer_aborts_total"); n != 1 {
			t.Errorf("dead-writer aborts = %v, want 1", n)
		}
		// The blob is usable again.
		a, err := cl.Call(ctx, "vm:vm", &wire.AssignReq{Blob: id, Size: 5, Append: true})
		if err != nil {
			t.Error(err)
			return
		}
		if a.(*wire.AssignResp).Offset != 0 {
			t.Errorf("offset after sweep = %d", a.(*wire.AssignResp).Offset)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestManagerCloseReleasesSyncWaiters(t *testing.T) {
	r := newRig(t, ManagerConfig{})
	id := r.create()
	r.call(&wire.AssignReq{Blob: id, Size: 10, Append: true})
	done := make(chan error, 1)
	go func() { done <- r.callErr(&wire.SyncReq{Blob: id, Version: 1}) }()
	time.Sleep(20 * time.Millisecond)
	r.m.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("SYNC succeeded after manager close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("SYNC leaked through manager close")
	}
}
