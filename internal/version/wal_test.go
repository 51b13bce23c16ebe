package version

import (
	"context"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"blobseer/internal/rpc"
	"blobseer/internal/seglog"
	"blobseer/internal/transport"
	"blobseer/internal/vclock"
	"blobseer/internal/wire"
)

// durableRig is a version manager over inproc transport with a WAL, plus
// the ability to "crash" (close without grace) and restart on the same
// log file.
type durableRig struct {
	t    *testing.T
	dir  string
	net  *transport.Inproc
	cl   *rpc.Client
	m    *Manager
	addr string
	n    int // restart counter: each incarnation listens on a fresh name
}

func newDurableRig(t *testing.T, cfg ManagerConfig) *durableRig {
	t.Helper()
	r := &durableRig{t: t, dir: t.TempDir(), net: transport.NewInproc()}
	sched := vclock.NewReal()
	if cfg.Sched == nil {
		cfg.Sched = sched
	}
	cfg.WALPath = filepath.Join(r.dir, "vm.wal")
	r.cl = rpc.NewClient(r.net, sched)
	r.startWith(cfg)
	t.Cleanup(func() {
		r.cl.Close()
		r.m.Close()
		r.net.Close()
	})
	return r
}

func (r *durableRig) startWith(cfg ManagerConfig) {
	r.t.Helper()
	r.n++
	r.addr = "vm" + string(rune('0'+r.n))
	ln, err := r.net.Listen(r.addr)
	if err != nil {
		r.t.Fatal(err)
	}
	m, err := ServeManagerDurable(ln, cfg)
	if err != nil {
		r.t.Fatalf("start incarnation %d: %v", r.n, err)
	}
	r.m = m
}

// restart closes the current incarnation and starts a new one on the same
// log.
func (r *durableRig) restart(cfg ManagerConfig) {
	r.t.Helper()
	r.m.Close()
	if cfg.Sched == nil {
		cfg.Sched = vclock.NewReal()
	}
	cfg.WALPath = filepath.Join(r.dir, "vm.wal")
	r.startWith(cfg)
}

func (r *durableRig) call(req wire.Msg) wire.Msg {
	r.t.Helper()
	resp, err := r.cl.Call(context.Background(), r.addr, req)
	if err != nil {
		r.t.Fatalf("%v: %v", req.Kind(), err)
	}
	return resp
}

func (r *durableRig) callErr(req wire.Msg) error {
	_, err := r.cl.Call(context.Background(), r.addr, req)
	return err
}

func TestWALSurvivesRestart(t *testing.T) {
	r := newDurableRig(t, ManagerConfig{})
	id := r.call(&wire.CreateBlobReq{PageSize: 1024}).(*wire.CreateBlobResp).Blob

	// Publish two versions.
	for i := 0; i < 2; i++ {
		a := r.call(&wire.AssignReq{Blob: id, Size: 4096, Append: true}).(*wire.AssignResp)
		r.call(&wire.CompleteReq{Blob: id, Version: a.Version})
	}
	rec := r.call(&wire.RecentReq{Blob: id}).(*wire.RecentResp)
	if rec.Version != 2 || rec.Size != 8192 {
		t.Fatalf("before restart: recent = %+v", rec)
	}

	r.restart(ManagerConfig{})
	rec = r.call(&wire.RecentReq{Blob: id}).(*wire.RecentResp)
	if rec.Version != 2 || rec.Size != 8192 {
		t.Fatalf("after restart: recent = %+v", rec)
	}
	// Sizes of individual versions survive too.
	sz := r.call(&wire.SizeReq{Blob: id, Version: 1}).(*wire.SizeResp)
	if sz.Size != 4096 {
		t.Fatalf("size(1) after restart = %d", sz.Size)
	}
	// The version counter continues, never reuses numbers.
	a := r.call(&wire.AssignReq{Blob: id, Size: 100, Append: true}).(*wire.AssignResp)
	if a.Version != 3 || a.Offset != 8192 {
		t.Fatalf("post-restart assign = %+v", a)
	}
	// Blob ids continue as well.
	id2 := r.call(&wire.CreateBlobReq{PageSize: 512}).(*wire.CreateBlobResp).Blob
	if id2 <= id {
		t.Fatalf("post-restart blob id %v not above %v", id2, id)
	}
}

func TestWALRestartMidFlight(t *testing.T) {
	r := newDurableRig(t, ManagerConfig{})
	id := r.call(&wire.CreateBlobReq{PageSize: 1024}).(*wire.CreateBlobResp).Blob
	a1 := r.call(&wire.AssignReq{Blob: id, Size: 1024, Append: true}).(*wire.AssignResp)
	a2 := r.call(&wire.AssignReq{Blob: id, Size: 1024, Append: true}).(*wire.AssignResp)
	// Complete only the second: publication must wait for the first.
	r.call(&wire.CompleteReq{Blob: id, Version: a2.Version})

	r.restart(ManagerConfig{})

	// Still unpublished after restart (order preserved across the crash).
	rec := r.call(&wire.RecentReq{Blob: id}).(*wire.RecentResp)
	if rec.Version != 0 {
		t.Fatalf("recent after restart = %d, want 0", rec.Version)
	}
	// The surviving writer finishes version 1; both publish in order.
	r.call(&wire.CompleteReq{Blob: id, Version: a1.Version})
	rec = r.call(&wire.RecentReq{Blob: id}).(*wire.RecentResp)
	if rec.Version != 2 || rec.Size != 2048 {
		t.Fatalf("after completing v1: recent = %+v", rec)
	}
}

func TestWALRestartSweepsDeadWriter(t *testing.T) {
	r := newDurableRig(t, ManagerConfig{})
	id := r.call(&wire.CreateBlobReq{PageSize: 1024}).(*wire.CreateBlobResp).Blob
	// This writer "dies with the crash": assigned, never completed.
	r.call(&wire.AssignReq{Blob: id, Size: 1024, Append: true})
	a2 := r.call(&wire.AssignReq{Blob: id, Size: 1024, Append: true}).(*wire.AssignResp)
	r.call(&wire.CompleteReq{Blob: id, Version: a2.Version})

	// Restart with the sweeper enabled.
	r.restart(ManagerConfig{DeadWriterTimeout: 30 * 1e6}) // 30ms

	// SYNC on the orphan must eventually fail with Aborted (not hang), and
	// the completed later version can never publish (aborts cascade).
	err := r.callErr(&wire.SyncReq{Blob: id, Version: 1})
	var we *wire.Error
	if !errors.As(err, &we) || we.Code != wire.CodeAborted {
		t.Fatalf("sync on orphaned version: %v, want Aborted", err)
	}
}

func TestWALBranchAndAbortDurable(t *testing.T) {
	r := newDurableRig(t, ManagerConfig{})
	id := r.call(&wire.CreateBlobReq{PageSize: 1024}).(*wire.CreateBlobResp).Blob
	a1 := r.call(&wire.AssignReq{Blob: id, Size: 2048, Append: true}).(*wire.AssignResp)
	r.call(&wire.CompleteReq{Blob: id, Version: a1.Version})
	// An aborted second version.
	a2 := r.call(&wire.AssignReq{Blob: id, Size: 512, Append: true}).(*wire.AssignResp)
	r.call(&wire.AbortReq{Blob: id, Version: a2.Version})
	// A branch at version 1.
	bid := r.call(&wire.BranchReq{Blob: id, Version: 1}).(*wire.BranchResp).NewBlob

	r.restart(ManagerConfig{})

	// Branch state survives: same lineage, same size at branch point.
	info := r.call(&wire.BlobInfoReq{Blob: bid}).(*wire.BlobInfoResp)
	if len(info.Lineage) != 2 {
		t.Fatalf("branch lineage after restart: %+v", info.Lineage)
	}
	rec := r.call(&wire.RecentReq{Blob: bid}).(*wire.RecentResp)
	if rec.Version != 1 || rec.Size != 2048 {
		t.Fatalf("branch recent after restart = %+v", rec)
	}
	// The abort survives: version 2 of the original is aborted, and a new
	// append on the original gets version 3.
	err := r.callErr(&wire.SyncReq{Blob: id, Version: 2})
	var we *wire.Error
	if !errors.As(err, &we) || we.Code != wire.CodeAborted {
		t.Fatalf("sync on aborted version after restart: %v", err)
	}
	a3 := r.call(&wire.AssignReq{Blob: id, Size: 100, Append: true}).(*wire.AssignResp)
	if a3.Version != 3 || a3.Offset != 2048 {
		t.Fatalf("assign after restart = %+v (abort size rollback lost?)", a3)
	}
}

func TestWALTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "vm.wal")
	w, _, err := openWAL(path, walOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := appendEvent(w, walEvent{kind: walCreate, blob: 1, pageSize: 512}); err != nil {
		t.Fatal(err)
	}
	if err := appendEvent(w, walEvent{kind: walAssign, blob: 1, version: 1, size: 512, newSize: 512}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the final record in the active segment: drop its last 3 bytes.
	seg := seglog.SegmentPath(path, 1)
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	w2, rec, err := openWAL(path, walOptions{})
	if err != nil {
		t.Fatalf("recovery after torn tail: %v", err)
	}
	defer w2.Close()
	events := rec.events
	if len(events) != 1 || events[0].kind != walCreate {
		t.Fatalf("recovered %d events, want just the create", len(events))
	}
	// The torn bytes are gone: appending works and yields a clean log.
	if err := appendEvent(w2, walEvent{kind: walAssign, blob: 1, version: 1, size: 512, newSize: 512}); err != nil {
		t.Fatal(err)
	}
}

func TestWALDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "vm.wal")
	w, _, err := openWAL(path, walOptions{})
	if err != nil {
		t.Fatal(err)
	}
	appendEvent(w, walEvent{kind: walCreate, blob: 1, pageSize: 512})
	appendEvent(w, walEvent{kind: walCreate, blob: 2, pageSize: 512})
	w.Close()
	seg := seglog.SegmentPath(path, 1)
	raw, _ := os.ReadFile(seg)
	raw[walHeaderSize] ^= 0xFF // flip a payload byte of the first record
	os.WriteFile(seg, raw, 0o644)
	if _, _, err := openWAL(path, walOptions{}); err == nil {
		t.Fatal("mid-log corruption accepted")
	}
	// Bad magic is corruption too.
	binary.LittleEndian.PutUint32(raw[0:4], 0xDEADBEEF)
	os.WriteFile(seg, raw, 0o644)
	if _, _, err := openWAL(path, walOptions{}); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestWALEventEncodeDecodeRoundTrip(t *testing.T) {
	events := []walEvent{
		{kind: walCreate, blob: 7, pageSize: 64 << 10},
		{kind: walBranch, blob: 9, parent: 7, version: 4, newSize: 1 << 30},
		{kind: walAssign, blob: 7, version: 12, offset: 4096, size: 8192, newSize: 1 << 20},
		{kind: walComplete, blob: 7, version: 12},
		{kind: walAbort, blob: 9, version: 5},
	}
	for _, e := range events {
		got, err := decodeWALEvent(e.encode())
		if err != nil {
			t.Fatalf("%+v: %v", e, err)
		}
		if got != e {
			t.Fatalf("round trip: got %+v want %+v", got, e)
		}
	}
	if _, err := decodeWALEvent([]byte{99}); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, err := decodeWALEvent(append(events[0].encode(), 1)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestWALReplayIsDeterministic(t *testing.T) {
	// Drive one manager through a busy history, then replay its log twice
	// and compare the externally visible state.
	r := newDurableRig(t, ManagerConfig{})
	id := r.call(&wire.CreateBlobReq{PageSize: 1024}).(*wire.CreateBlobResp).Blob
	for i := 0; i < 20; i++ {
		a := r.call(&wire.AssignReq{Blob: id, Size: uint64(512 + i), Append: true}).(*wire.AssignResp)
		switch i % 3 {
		case 0, 1:
			r.call(&wire.CompleteReq{Blob: id, Version: a.Version})
		case 2:
			r.call(&wire.AbortReq{Blob: id, Version: a.Version})
		}
	}
	r.m.Close()

	path := filepath.Join(r.dir, "vm.wal")
	load := func() (map[wire.BlobID]*blobState, wire.BlobID) {
		w, rec, err := openWAL(path, walOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		blobs := make(map[wire.BlobID]*blobState)
		next, err := replay(rec.events, blobs, 0)
		if err != nil {
			t.Fatal(err)
		}
		return blobs, next
	}
	b1, n1 := load()
	b2, n2 := load()
	if n1 != n2 {
		t.Fatalf("nextBlob differs: %v vs %v", n1, n2)
	}
	s1, s2 := b1[id], b2[id]
	if s1.next != s2.next || s1.published != s2.published ||
		s1.readable != s2.readable || s1.pendingSize != s2.pendingSize {
		t.Fatalf("replayed states differ: %+v vs %+v", s1, s2)
	}
	if len(s1.sizes) != len(s2.sizes) || len(s1.aborted) != len(s2.aborted) {
		t.Fatalf("replayed maps differ: %d/%d sizes, %d/%d aborted",
			len(s1.sizes), len(s2.sizes), len(s1.aborted), len(s2.aborted))
	}
}
