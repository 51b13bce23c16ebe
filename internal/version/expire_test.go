package version

import (
	"context"
	"path/filepath"
	"testing"

	"blobseer/internal/transport"
	"blobseer/internal/vclock"
	"blobseer/internal/wire"
)

func ctxBG() context.Context { return context.Background() }

// churn drives n assign+complete append cycles and returns the last
// published version.
func (r *rig) churn(blob wire.BlobID, n int) wire.Version {
	r.t.Helper()
	var last wire.Version
	for i := 0; i < n; i++ {
		resp := r.call(&wire.AssignReq{Blob: blob, Size: 4096, Append: true}).(*wire.AssignResp)
		r.call(&wire.CompleteReq{Blob: blob, Version: resp.Version})
		last = resp.Version
	}
	return last
}

func TestExpireMarksVersionsUnreadable(t *testing.T) {
	r := newRig(t, ManagerConfig{})
	blob := r.create()
	last := r.churn(blob, 5)

	resp := r.call(&wire.ExpireReq{Blob: blob, UpTo: 2}).(*wire.ExpireResp)
	if resp.Floor != 3 {
		t.Fatalf("floor = %d, want 3", resp.Floor)
	}
	if len(resp.Expired) != 3 || resp.Expired[0] != 0 || resp.Expired[2] != 2 {
		t.Fatalf("expired = %v, want [0 1 2]", resp.Expired)
	}
	for v := wire.Version(0); v <= 2; v++ {
		if err := r.callErr(&wire.SizeReq{Blob: blob, Version: v}); err == nil {
			t.Fatalf("size of expired version %d succeeded", v)
		}
	}
	for v := wire.Version(3); v <= last; v++ {
		sz := r.call(&wire.SizeReq{Blob: blob, Version: v}).(*wire.SizeResp)
		if sz.Size != uint64(v)*4096 {
			t.Fatalf("version %d size = %d", v, sz.Size)
		}
	}
	// Idempotent repeat: same floor, nothing newly expired.
	again := r.call(&wire.ExpireReq{Blob: blob, UpTo: 2}).(*wire.ExpireResp)
	if again.Floor != 3 || len(again.Expired) != 0 {
		t.Fatalf("repeat expire: floor %d expired %v", again.Floor, again.Expired)
	}
	// Branching at an expired version must fail.
	if err := r.callErr(&wire.BranchReq{Blob: blob, Version: 1}); !wire.IsNotPublished(err) {
		t.Fatalf("branch at expired version: err = %v", err)
	}
}

func TestExpireRefusesNewestReadable(t *testing.T) {
	r := newRig(t, ManagerConfig{})
	blob := r.create()
	last := r.churn(blob, 3)
	for _, upTo := range []wire.Version{last, last + 5} {
		err := r.callErr(&wire.ExpireReq{Blob: blob, UpTo: upTo})
		if wire.CodeOf(err) != wire.CodeBadRequest {
			t.Fatalf("expire up to %d: err = %v", upTo, err)
		}
	}
}

func TestExpireRefusesBranchPin(t *testing.T) {
	r := newRig(t, ManagerConfig{})
	blob := r.create()
	r.churn(blob, 4)
	child := r.call(&wire.BranchReq{Blob: blob, Version: 2}).(*wire.BranchResp).NewBlob

	// The branch point (and anything above it) is pinned.
	if err := r.callErr(&wire.ExpireReq{Blob: blob, UpTo: 2}); wire.CodeOf(err) != wire.CodeBadRequest {
		t.Fatalf("expire across branch pin: err = %v", err)
	}
	if err := r.callErr(&wire.ExpireReq{Blob: blob, UpTo: 3}); wire.CodeOf(err) != wire.CodeBadRequest {
		t.Fatalf("expire above branch pin: err = %v", err)
	}
	// Below the pin is allowed, and the branch keeps reading its history.
	resp := r.call(&wire.ExpireReq{Blob: blob, UpTo: 1}).(*wire.ExpireResp)
	if resp.Floor != 2 {
		t.Fatalf("floor = %d, want 2", resp.Floor)
	}
	if sz := r.call(&wire.SizeReq{Blob: child, Version: 2}).(*wire.SizeResp); sz.Size != 2*4096 {
		t.Fatalf("branch read of pinned snapshot: size %d", sz.Size)
	}
	// The expired history is gone for the branch too (namespace-level).
	if err := r.callErr(&wire.SizeReq{Blob: child, Version: 1}); err == nil {
		t.Fatal("branch read of expired parent version succeeded")
	}
}

// A branch whose branch point resolves to a grandparent namespace must
// pin the grandparent, not the intermediate blob.
func TestExpireRefusesTransitiveBranchPin(t *testing.T) {
	r := newRig(t, ManagerConfig{})
	root := r.create()
	r.churn(root, 4)
	mid := r.call(&wire.BranchReq{Blob: root, Version: 3}).(*wire.BranchResp).NewBlob
	// Branch mid at version 2 — owned by root, so the pin lands on root.
	r.call(&wire.BranchReq{Blob: mid, Version: 2})
	if err := r.callErr(&wire.ExpireReq{Blob: root, UpTo: 2}); wire.CodeOf(err) != wire.CodeBadRequest {
		t.Fatalf("expire across grandchild pin: err = %v", err)
	}
	resp := r.call(&wire.ExpireReq{Blob: root, UpTo: 1}).(*wire.ExpireResp)
	if resp.Floor != 2 {
		t.Fatalf("floor = %d, want 2", resp.Floor)
	}
}

func TestExpireRefusesInFlightBase(t *testing.T) {
	r := newRig(t, ManagerConfig{})
	blob := r.create()
	r.churn(blob, 3) // readable = 3
	// Two updates assigned against snapshot 3; publishing the first moves
	// readable to 4 while the second still weaves against 3.
	a4 := r.call(&wire.AssignReq{Blob: blob, Size: 4096, Append: true}).(*wire.AssignResp)
	a5 := r.call(&wire.AssignReq{Blob: blob, Size: 4096, Append: true}).(*wire.AssignResp)
	r.call(&wire.CompleteReq{Blob: blob, Version: a4.Version})

	// Expiring snapshot 3 would cut the ground from under in-flight 5.
	if err := r.callErr(&wire.ExpireReq{Blob: blob, UpTo: 3}); wire.CodeOf(err) != wire.CodeBadRequest {
		t.Fatalf("expire of in-flight base: err = %v", err)
	}
	// Below the base is fine even with the update in flight.
	resp := r.call(&wire.ExpireReq{Blob: blob, UpTo: 2}).(*wire.ExpireResp)
	if resp.Floor != 3 {
		t.Fatalf("floor = %d, want 3", resp.Floor)
	}
	r.call(&wire.CompleteReq{Blob: blob, Version: a5.Version})
	resp = r.call(&wire.ExpireReq{Blob: blob, UpTo: 3}).(*wire.ExpireResp)
	if resp.Floor != 4 {
		t.Fatalf("floor after completion = %d, want 4", resp.Floor)
	}
}

func TestExpireClampsToRetainLastN(t *testing.T) {
	r := newRig(t, ManagerConfig{RetainVersions: 4})
	blob := r.create()
	last := r.churn(blob, 6) // own published: 0..6
	resp := r.call(&wire.ExpireReq{Blob: blob, UpTo: last - 1}).(*wire.ExpireResp)
	// Keep-last-4 keeps 3,4,5,6: the floor clamps to 3.
	if resp.Floor != 3 {
		t.Fatalf("floor = %d, want 3 (keep-last-4)", resp.Floor)
	}
	if err := r.callErr(&wire.SizeReq{Blob: blob, Version: 3}); err != nil {
		t.Fatalf("retained version 3 unreadable: %v", err)
	}
	if err := r.callErr(&wire.SizeReq{Blob: blob, Version: 2}); err == nil {
		t.Fatal("version 2 should be expired")
	}
}

func TestGCInfoReportsPlan(t *testing.T) {
	r := newRig(t, ManagerConfig{})
	blob := r.create()
	r.churn(blob, 5)
	r.call(&wire.ExpireReq{Blob: blob, UpTo: 2})
	info := r.call(&wire.GCInfoReq{Blob: blob}).(*wire.GCInfoResp)
	if info.OwnMin != 0 || info.Floor != 3 {
		t.Fatalf("ownMin %d floor %d", info.OwnMin, info.Floor)
	}
	if info.Retained.Version != 3 || info.Retained.Size != 3*4096 {
		t.Fatalf("retained = %+v, want oldest retained v3", info.Retained)
	}
	if len(info.Expired) != 3 || info.Expired[0].Version != 0 || info.Expired[2].Version != 2 {
		t.Fatalf("expired = %+v", info.Expired)
	}
	if info.Expired[2].Size != 2*4096 {
		t.Fatalf("expired v2 size = %d", info.Expired[2].Size)
	}
}

func TestExpireSurvivesRestartAndSnapshot(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "vm.wal")
	net := transport.NewInproc()
	defer net.Close()
	sched := vclock.NewReal()

	ln, err := net.Listen("vm1")
	if err != nil {
		t.Fatal(err)
	}
	m, err := ServeManagerDurable(ln, ManagerConfig{Sched: sched, WALPath: walPath})
	if err != nil {
		t.Fatal(err)
	}
	ctx := ctxBG()
	create := func(mm *Manager) wire.BlobID {
		resp, err := mm.Apply(ctx, &wire.CreateBlobReq{PageSize: 4096})
		if err != nil {
			t.Fatal(err)
		}
		return resp.(*wire.CreateBlobResp).Blob
	}
	blob := create(m)
	for i := 0; i < 5; i++ {
		resp, err := m.Apply(ctx, &wire.AssignReq{Blob: blob, Size: 4096, Append: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Apply(ctx, &wire.CompleteReq{Blob: blob, Version: resp.(*wire.AssignResp).Version}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Apply(ctx, &wire.BranchReq{Blob: blob, Version: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Apply(ctx, &wire.ExpireReq{Blob: blob, UpTo: 2}); err != nil {
		t.Fatal(err)
	}
	// Checkpoint so the floor and the pins must round-trip through the
	// snapshot, not just WAL replay.
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	m.Close()

	ln2, err := net.Listen("vm2")
	if err != nil {
		t.Fatal(err)
	}
	m2, err := ServeManagerDurable(ln2, ManagerConfig{Sched: sched, WALPath: walPath})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if !m2.log.Stats().SnapshotLoaded {
		t.Fatal("snapshot not loaded on restart")
	}
	if _, err := m2.Apply(ctx, &wire.SizeReq{Blob: blob, Version: 2}); err == nil {
		t.Fatal("expired version readable after restart")
	}
	if _, err := m2.Apply(ctx, &wire.SizeReq{Blob: blob, Version: 3}); err != nil {
		t.Fatalf("retained version unreadable after restart: %v", err)
	}
	// The branch pin survives recovery: expiring past it is still refused.
	if _, err := m2.Apply(ctx, &wire.ExpireReq{Blob: blob, UpTo: 4}); wire.CodeOf(err) != wire.CodeBadRequest {
		t.Fatalf("expire across recovered pin: err = %v", err)
	}
}

// The complete() duplicate check must only accept versions this state
// actually recorded: pre-branch versions belong to the parent lineage
// and unassigned versions were never here at all.
func TestCompleteRejectsForeignVersions(t *testing.T) {
	r := newRig(t, ManagerConfig{})
	blob := r.create()
	r.churn(blob, 4)
	child := r.call(&wire.BranchReq{Blob: blob, Version: 3}).(*wire.BranchResp).NewBlob

	// Pre-branch versions — the seeded branch point included — are owned
	// by the parent: not idempotent here.
	for _, v := range []wire.Version{1, 2, 3} {
		err := r.callErr(&wire.CompleteReq{Blob: child, Version: v})
		if !wire.IsNotFound(err) {
			t.Fatalf("complete(child, %d): err = %v, want not found", v, err)
		}
	}
	// Published versions of the parent stay idempotent on the parent.
	r.call(&wire.CompleteReq{Blob: blob, Version: 2})
	// Never-assigned versions are rejected everywhere.
	if err := r.callErr(&wire.CompleteReq{Blob: blob, Version: 99}); !wire.IsNotFound(err) {
		t.Fatalf("complete of unassigned version: err = %v", err)
	}
}
