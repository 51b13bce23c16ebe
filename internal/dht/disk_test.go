package dht

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"blobseer/internal/rpc"
	"blobseer/internal/seglog"
	"blobseer/internal/transport"
	"blobseer/internal/vclock"
)

// The log behind a durable node is proven in internal/seglog, against
// this layout's key framing; the tests here pin the instantiation and
// what is the node's own: reload on restart, dedupe before logging,
// batched deletes.

// TestMetaLayoutPinned: the magics are the on-disk format, and the seal
// fsyncs are the durability contract documented in disk.go — neither
// may change by accident.
func TestMetaLayoutPinned(t *testing.T) {
	want := seglog.KVLayout{
		Format:   seglog.Format{Name: "dht", RecMagic: 0xD47A5EE5, SegMagic: 0xD47A5E60, SegFormat: 1, SnapMagic: 0xD47A55A9},
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
	r.rc = rpc.NewClient(r.net, r.sched, rpc.ClientOptions{})
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
	node, err := ServeDurableNode(ln, r.sched, r.path, r.opts)
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
		keys = append(keys, []byte(fmt.Sprintf("node/%d", i)))
		values = append(values, bytes.Repeat([]byte{byte(i)}, i+1))
	}
	if err := c.MultiPut(ctx, keys, values); err != nil {
		t.Fatal(err)
	}
	k0, b0 := r.node.Stats()

	r.restart()
	c = r.client()
	k1, b1 := r.node.Stats()
	if k0 != k1 || b0 != b1 {
		t.Fatalf("stats changed across restart: %d/%d -> %d/%d", k0, b0, k1, b1)
	}
	got, found, err := c.MultiGet(ctx, keys)
	if err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		if !found[i] || !bytes.Equal(got[i], values[i]) {
			t.Fatalf("key %s lost or changed across restart", keys[i])
		}
	}
	// The restarted node keeps accepting new pairs.
	if err := c.Put(ctx, []byte("after"), []byte("restart")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := c.Get(ctx, []byte("after"))
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
		keys = append(keys, []byte(fmt.Sprintf("node/%d", i)))
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
	wantKeys, wantBytes := r.node.Stats()
	if wantKeys != 10 {
		t.Fatalf("stats keys = %d after delete, want 10", wantKeys)
	}

	r.restart()
	c = r.client()
	if k, b := r.node.Stats(); k != wantKeys || b != wantBytes {
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
		if err := c.Put(ctx, []byte(fmt.Sprintf("node/%d", i)), bytes.Repeat([]byte{byte(i)}, 32)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.node.log.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// A few tail records after the snapshot.
	for i := 40; i < 44; i++ {
		if err := c.Put(ctx, []byte(fmt.Sprintf("node/%d", i)), bytes.Repeat([]byte{byte(i)}, 32)); err != nil {
			t.Fatal(err)
		}
	}
	r.restart()
	st := r.node.log.RecoveryStats()
	if !st.SnapshotLoaded || st.RecordsReplayed != 4 {
		t.Fatalf("recovery stats = %+v, want the snapshot plus 4 replayed records", st)
	}
	c = r.client()
	for i := 0; i < 44; i++ {
		v, ok, err := c.Get(ctx, []byte(fmt.Sprintf("node/%d", i)))
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
		keys = append(keys, []byte(fmt.Sprintf("node/%d", i)))
		if err := c.Put(ctx, keys[i], bytes.Repeat([]byte{byte(i)}, 100)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Delete(ctx, keys[:45]); err != nil {
		t.Fatal(err)
	}
	before := r.node.LogBytes()
	if err := r.node.CompactLog(); err != nil {
		t.Fatal(err)
	}
	after := r.node.LogBytes()
	if after >= before {
		t.Fatalf("log did not shrink: %d -> %d bytes", before, after)
	}
	// The log keeps no snapshot, and Compact does not start one.
	if st := r.node.log.Stats(); st.Compactions == 0 || st.Snapshots != 0 {
		t.Fatalf("compaction pass ran %d rewrites, %d snapshots (want none)", st.Compactions, st.Snapshots)
	}
	if _, err := os.Stat(seglog.SnapshotPath(r.path)); !os.IsNotExist(err) {
		t.Fatalf("Compact created a snapshot file for a log that keeps none: %v", err)
	}
	// Everything live survives the rewrite and a restart — a rescan of
	// every segment — byte-identically.
	r.restart()
	if rs := r.node.log.RecoveryStats(); rs.SnapshotLoaded || rs.SegmentsRescanned != rs.SegmentsOnDisk {
		t.Fatalf("restart after compaction did not rescan every segment: %+v", rs)
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
	c.Put(ctx, []byte("alpha"), []byte("1"))
	c.Put(ctx, []byte("beta"), []byte("2"))
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
	if _, ok, _ := c.Get(ctx, []byte("alpha")); !ok {
		t.Fatal("first record lost after torn-tail recovery")
	}
	if _, ok, _ := c.Get(ctx, []byte("beta")); ok {
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
		c.Put(ctx, []byte(fmt.Sprintf("k%d", i)), bytes.Repeat([]byte{1}, 100))
	}
	size0 := r.node.LogBytes()
	for round := 0; round < 3; round++ {
		r.restart()
		c = r.client()
		// Re-put the same pairs: immutable dedup must keep the log fixed.
		for i := 0; i < 10; i++ {
			c.Put(ctx, []byte(fmt.Sprintf("k%d", i)), bytes.Repeat([]byte{1}, 100))
		}
	}
	if size := r.node.LogBytes(); size != size0 {
		t.Fatalf("log grew from %d to %d across idempotent restarts", size0, size)
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
		keys = append(keys, []byte(fmt.Sprintf("node/%d", i)))
		if err := c.Put(ctx, keys[i], bytes.Repeat([]byte{byte(i)}, 64)); err != nil {
			t.Fatal(err)
		}
	}
	before := r.node.log.Stats()
	if removed, err := c.Delete(ctx, keys); err != nil || removed != 8 {
		t.Fatalf("delete: removed %d, %v", removed, err)
	}
	after := r.node.log.Stats()
	if commits, records := after.Syncs-before.Syncs, after.Appends-before.Appends; commits != 1 || records != 8 {
		t.Fatalf("delete batch took %d commits for %d records, want 1 for 8", commits, records)
	}
	r.restart()
	if k, _ := r.node.Stats(); k != 0 {
		t.Fatalf("%d keys survived the batch delete across a restart", k)
	}
}
