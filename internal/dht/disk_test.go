package dht

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"blobseer/internal/obs"
	"blobseer/internal/rpc"
	"blobseer/internal/seglog"
	"blobseer/internal/transport"
	"blobseer/internal/vclock"
)

// The log behind a durable node is proven in internal/seglog, against
// this layout; the tests here pin the instantiation and what is the
// node's own: reload on restart, dedupe before logging, batched deletes.

// TestMetaLayoutPinned: the magics, the format number and the key size
// are the on-disk format, and the seal fsyncs are the durability
// contract documented in disk.go — none may change by accident.
func TestMetaLayoutPinned(t *testing.T) {
	want := seglog.KVLayout{
		Format:   seglog.Format{Name: "dht", RecMagic: 0xD47A5EE5, SegMagic: 0xD47A5E60, SegFormat: 2, SnapMagic: 0xD47A55A9},
		KeyLen:   33,
		SealSync: true,
	}
	if *metaLayout != want {
		t.Fatalf("metaLayout = %+v, want %+v", *metaLayout, want)
	}
}

// durableNodeRig serves one durable node and can restart it on its log.
type durableNodeRig struct {
	t     testing.TB
	path  string
	opts  LogOptions
	net   *transport.Inproc
	sched vclock.Scheduler
	rc    *rpc.Client
	node  *Node
	n     int
	addr  string
}

func newDurableNodeRig(t testing.TB) *durableNodeRig {
	return newDurableNodeRigOpts(t, LogOptions{})
}

func newDurableNodeRigOpts(t testing.TB, opts LogOptions) *durableNodeRig {
	t.Helper()
	r := &durableNodeRig{
		t:     t,
		path:  filepath.Join(t.TempDir(), "meta.log"),
		opts:  opts,
		net:   transport.NewInproc(),
		sched: vclock.NewReal(),
	}
	r.rc = rpc.NewClient(r.net, r.sched)
	r.start()
	t.Cleanup(func() {
		r.rc.Close()
		r.node.Close()
		r.net.Close()
	})
	return r
}

func (r *durableNodeRig) start() {
	r.t.Helper()
	r.n++
	r.addr = fmt.Sprintf("meta-%d", r.n)
	ln, err := r.net.Listen(r.addr)
	if err != nil {
		r.t.Fatal(err)
	}
	node, err := ServeNode(ln, r.sched, r.path, r.opts)
	if err != nil {
		r.t.Fatalf("start durable node: %v", err)
	}
	r.node = node
}

func (r *durableNodeRig) restart() {
	r.t.Helper()
	r.node.Close()
	r.start()
}

func (r *durableNodeRig) client() *Client {
	r.t.Helper()
	ring, err := NewRing([]string{r.addr}, 1)
	if err != nil {
		r.t.Fatal(err)
	}
	return NewClient(ring, r.rc, r.sched)
}

func TestDurableNodeSurvivesRestart(t *testing.T) {
	r := newDurableNodeRig(t)
	ctx := context.Background()
	c := r.client()
	var keys, values [][]byte
	for i := 0; i < 50; i++ {
		keys = append(keys, nkey(fmt.Sprintf("node/%d", i)))
		values = append(values, bytes.Repeat([]byte{byte(i)}, i+1))
	}
	if err := c.MultiPut(ctx, keys, values); err != nil {
		t.Fatal(err)
	}
	k0, b0 := stored(r.node)

	r.restart()
	c = r.client()
	k1, b1 := stored(r.node)
	if k0 != k1 || b0 != b1 {
		t.Fatalf("stats changed across restart: %d/%d -> %d/%d", k0, b0, k1, b1)
	}
	got, found, err := c.MultiGet(ctx, keys, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		if !found[i] || !bytes.Equal(got[i], values[i]) {
			t.Fatalf("key %s lost or changed across restart", keys[i])
		}
	}
	// The restarted node keeps accepting new pairs.
	if err := c.Put(ctx, nkey("after"), []byte("restart")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := c.Get(ctx, nkey("after"))
	if err != nil || !ok || string(v) != "restart" {
		t.Fatalf("post-restart put/get: %q %v %v", v, ok, err)
	}
}

func TestDurableNodeDeleteSurvivesRestart(t *testing.T) {
	r := newDurableNodeRig(t)
	ctx := context.Background()
	c := r.client()
	var keys, values [][]byte
	for i := 0; i < 20; i++ {
		keys = append(keys, nkey(fmt.Sprintf("node/%d", i)))
		values = append(values, bytes.Repeat([]byte{byte(i)}, 64))
	}
	if err := c.MultiPut(ctx, keys, values); err != nil {
		t.Fatal(err)
	}
	removed, err := c.Delete(ctx, keys[:10])
	if err != nil {
		t.Fatal(err)
	}
	if removed != 10 {
		t.Fatalf("removed %d pairs, want 10", removed)
	}
	// Idempotent: re-deleting reports nothing left to remove.
	if again, err := c.Delete(ctx, keys[:10]); err != nil || again != 0 {
		t.Fatalf("re-delete: %d, %v", again, err)
	}
	wantKeys, wantBytes := stored(r.node)
	if wantKeys != 10 {
		t.Fatalf("stats keys = %d after delete, want 10", wantKeys)
	}

	r.restart()
	c = r.client()
	if k, b := stored(r.node); k != wantKeys || b != wantBytes {
		t.Fatalf("stats changed across restart: %d/%d -> %d/%d", wantKeys, wantBytes, k, b)
	}
	for i := range keys {
		_, ok, err := c.Get(ctx, keys[i])
		if err != nil {
			t.Fatal(err)
		}
		if i < 10 && ok {
			t.Fatalf("deleted key %s resurrected by restart", keys[i])
		}
		if i >= 10 && !ok {
			t.Fatalf("live key %s lost by restart", keys[i])
		}
	}
}

func TestDurableNodeSnapshotBoundsReplay(t *testing.T) {
	r := newDurableNodeRigOpts(t, LogOptions{SegmentBytes: 512})
	ctx := context.Background()
	c := r.client()
	for i := 0; i < 40; i++ {
		if err := c.Put(ctx, nkey(fmt.Sprintf("node/%d", i)), bytes.Repeat([]byte{byte(i)}, 32)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.node.log.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// A few tail records after the snapshot.
	for i := 40; i < 44; i++ {
		if err := c.Put(ctx, nkey(fmt.Sprintf("node/%d", i)), bytes.Repeat([]byte{byte(i)}, 32)); err != nil {
			t.Fatal(err)
		}
	}
	r.restart()
	if loaded, replayed := obs.Value(r.node, "store_recovery_snapshot_loaded"), obs.Value(r.node, "store_recovery_records_replayed"); loaded != 1 || replayed != 4 {
		t.Fatalf("recovery: snapshot loaded %v, %v records replayed; want the snapshot plus 4 replayed records", loaded, replayed)
	}
	c = r.client()
	for i := 0; i < 44; i++ {
		v, ok, err := c.Get(ctx, nkey(fmt.Sprintf("node/%d", i)))
		if err != nil || !ok || !bytes.Equal(v, bytes.Repeat([]byte{byte(i)}, 32)) {
			t.Fatalf("key %d after snapshot+tail reopen: ok=%v err=%v", i, ok, err)
		}
	}
}

func TestDurableNodeCompactionShrinksLog(t *testing.T) {
	r := newDurableNodeRigOpts(t, LogOptions{SegmentBytes: 1024})
	ctx := context.Background()
	c := r.client()
	var keys [][]byte
	for i := 0; i < 60; i++ {
		keys = append(keys, nkey(fmt.Sprintf("node/%d", i)))
		if err := c.Put(ctx, keys[i], bytes.Repeat([]byte{byte(i)}, 100)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Delete(ctx, keys[:45]); err != nil {
		t.Fatal(err)
	}
	before := obs.Value(r.node, "store_log_bytes")
	if err := r.node.CompactLog(); err != nil {
		t.Fatal(err)
	}
	after := obs.Value(r.node, "store_log_bytes")
	if after >= before {
		t.Fatalf("log did not shrink: %v -> %v bytes", before, after)
	}
	// The log keeps no snapshot, and Compact does not start one.
	if st := stats(r.node.log); st.Compactions == 0 || st.Snapshots != 0 {
		t.Fatalf("compaction pass ran %d rewrites, %d snapshots (want none)", st.Compactions, st.Snapshots)
	}
	if _, err := os.Stat(seglog.SnapshotPath(r.path)); !os.IsNotExist(err) {
		t.Fatalf("Compact created a snapshot file for a log that keeps none: %v", err)
	}
	// Everything live survives the rewrite and a restart — a rescan of
	// every segment — byte-identically.
	r.restart()
	loaded, rescanned, segs := obs.Value(r.node, "store_recovery_snapshot_loaded"),
		obs.Value(r.node, "store_recovery_segments_rescanned"), obs.Value(r.node, "store_recovery_segments")
	if loaded != 0 || rescanned != segs {
		t.Fatalf("restart after compaction did not rescan every segment: snapshot loaded %v, %v of %v segments rescanned", loaded, rescanned, segs)
	}
	c = r.client()
	for i := 45; i < 60; i++ {
		v, ok, err := c.Get(ctx, keys[i])
		if err != nil || !ok || !bytes.Equal(v, bytes.Repeat([]byte{byte(i)}, 100)) {
			t.Fatalf("live key %d after compaction+restart: ok=%v err=%v", i, ok, err)
		}
	}
	for i := 0; i < 45; i++ {
		if _, ok, _ := c.Get(ctx, keys[i]); ok {
			t.Fatalf("deleted key %d resurrected by compaction", i)
		}
	}
}

func TestDurableNodeTornTail(t *testing.T) {
	r := newDurableNodeRig(t)
	ctx := context.Background()
	c := r.client()
	c.Put(ctx, nkey("alpha"), []byte("1"))
	c.Put(ctx, nkey("beta"), []byte("2"))
	r.node.Close()

	seg := seglog.SegmentPath(r.path, 1)
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, raw[:len(raw)-2], 0o644); err != nil {
		t.Fatal(err)
	}
	r.start()
	c = r.client()
	if _, ok, _ := c.Get(ctx, nkey("alpha")); !ok {
		t.Fatal("first record lost after torn-tail recovery")
	}
	if _, ok, _ := c.Get(ctx, nkey("beta")); ok {
		t.Fatal("torn record resurfaced")
	}
}

func TestDurableNodeRepeatedRestartsNoGrowth(t *testing.T) {
	// Re-puts of recovered pairs must not re-log them: the log length must
	// stay fixed across restart cycles with no new writes.
	r := newDurableNodeRig(t)
	ctx := context.Background()
	c := r.client()
	for i := 0; i < 10; i++ {
		c.Put(ctx, nkey(fmt.Sprintf("k%d", i)), bytes.Repeat([]byte{1}, 100))
	}
	size0 := obs.Value(r.node, "store_log_bytes")
	for round := 0; round < 3; round++ {
		r.restart()
		c = r.client()
		// Re-put the same pairs: immutable dedup must keep the log fixed.
		for i := 0; i < 10; i++ {
			c.Put(ctx, nkey(fmt.Sprintf("k%d", i)), bytes.Repeat([]byte{1}, 100))
		}
	}
	if size := obs.Value(r.node, "store_log_bytes"); size != size0 {
		t.Fatalf("log grew from %v to %v across idempotent restarts", size0, size)
	}
}

// TestDurableNodeBatchDeleteSharesOneCommit pins the group-commit
// economics the GC sweep depends on, through the node: one DELETE
// request's tombstones are enqueued under the shard locks and awaited
// together, so they share a single write+fsync instead of paying one
// per key.
func TestDurableNodeBatchDeleteSharesOneCommit(t *testing.T) {
	r := newDurableNodeRigOpts(t, LogOptions{Sync: true})
	ctx := context.Background()
	c := r.client()
	var keys [][]byte
	for i := 0; i < 8; i++ {
		keys = append(keys, nkey(fmt.Sprintf("node/%d", i)))
		if err := c.Put(ctx, keys[i], bytes.Repeat([]byte{byte(i)}, 64)); err != nil {
			t.Fatal(err)
		}
	}
	before := stats(r.node.log)
	if removed, err := c.Delete(ctx, keys); err != nil || removed != 8 {
		t.Fatalf("delete: removed %d, %v", removed, err)
	}
	after := stats(r.node.log)
	if commits, records := after.Syncs-before.Syncs, after.Appends-before.Appends; commits != 1 || records != 8 {
		t.Fatalf("delete batch took %d commits for %d records, want 1 for 8", commits, records)
	}
	r.restart()
	if k, _ := stored(r.node); k != 0 {
		t.Fatalf("%d keys survived the batch delete across a restart", k)
	}
}

// TestMetaLogRefusesFormat1: segment format 1 framed every key with a
// length. A log in that format fails to open, by name, rather than have
// its records read as raw KeyLen-byte keys; the same log with its
// format number restored opens.
func TestMetaLogRefusesFormat1(t *testing.T) {
	r := newDurableNodeRig(t)
	ctx := context.Background()
	k, v := nkey("written before the format check"), []byte("v")
	if err := r.client().Put(ctx, k, v); err != nil {
		t.Fatal(err)
	}
	r.node.Close()
	setFormat := func(format uint32) {
		t.Helper()
		f, err := os.OpenFile(seglog.SegmentPath(r.path, 1), os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := f.WriteAt(binary.LittleEndian.AppendUint32(nil, format), 4); err != nil {
			t.Fatal(err)
		}
	}
	setFormat(1)
	ln, err := r.net.Listen("format-1")
	if err != nil {
		t.Fatal(err)
	}
	if n, err := ServeNode(ln, r.sched, r.path, r.opts); err == nil || !strings.Contains(err.Error(), "unknown segment format 1") {
		if n != nil {
			n.Close()
		}
		t.Fatalf("opening a format-1 metadata log = %v, want an unknown segment format error", err)
	}
	ln.Close()
	setFormat(metaLayout.SegFormat)
	r.start()
	if got, ok, err := r.client().Get(ctx, k); err != nil || !ok || !bytes.Equal(got, v) {
		t.Fatalf("the pair after the format was restored: %q %v %v", got, ok, err)
	}
}
