package blobseer_test

import (
	"bytes"
	"context"
	"path/filepath"
	"testing"
	"time"

	"blobseer"
)

// TestRetentionEndToEnd drives the public retention API: churn a blob,
// branch mid-history, expire below the pin, GC, and verify the retained
// snapshots and the branch byte-identical while the expired history is
// gone and pages were actually reclaimed.
func TestRetentionEndToEnd(t *testing.T) {
	cl, err := blobseer.StartCluster(blobseer.ClusterOptions{RetainVersions: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	c, err := cl.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	const ps = 512
	blob, err := c.Create(ctx, blobseer.Options{PageSize: ps})
	if err != nil {
		t.Fatal(err)
	}
	base := make([]byte, 8*ps)
	for i := range base {
		base[i] = byte(i)
	}
	if _, err := blob.Append(ctx, base); err != nil {
		t.Fatal(err)
	}
	var last blobseer.Version
	for i := 0; i < 8; i++ {
		chunk := bytes.Repeat([]byte{byte(0x40 + i)}, 2*ps)
		if last, err = blob.Write(ctx, chunk, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := blob.Sync(ctx, last); err != nil {
		t.Fatal(err)
	}
	branch, err := blob.Branch(ctx, 5)
	if err != nil {
		t.Fatal(err)
	}
	branchGold := make([]byte, 8*ps)
	if err := branch.Read(ctx, 5, branchGold, 0); err != nil {
		t.Fatal(err)
	}
	lastGold := make([]byte, 8*ps)
	if err := blob.Read(ctx, last, lastGold, 0); err != nil {
		t.Fatal(err)
	}

	// The branch pin rejects over-eager expiry.
	if _, err := blob.Expire(ctx, 5); err == nil {
		t.Fatal("expire across the branch point succeeded")
	}
	pagesBefore := cl.Series("store_keys", "role", "data")
	floor, err := blob.Expire(ctx, 4)
	if err != nil {
		t.Fatal(err)
	}
	if floor != 5 {
		t.Fatalf("floor = %d, want 5", floor)
	}
	stats, err := blob.GC(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.DeletedPages == 0 {
		t.Fatalf("GC reclaimed nothing: %+v", stats)
	}
	pagesAfter := cl.Series("store_keys", "role", "data")
	if pagesAfter >= pagesBefore {
		t.Fatalf("provider pages %d -> %d", pagesBefore, pagesAfter)
	}

	// Expired history is unreadable; retained snapshots and the branch
	// are byte-identical.
	if err := blob.Read(ctx, 2, make([]byte, ps), 0); err == nil {
		t.Fatal("expired snapshot still readable")
	}
	got := make([]byte, 8*ps)
	if err := blob.Read(ctx, last, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, lastGold) {
		t.Fatal("latest snapshot changed after GC")
	}
	if err := branch.Read(ctx, 5, got, 0); err != nil {
		t.Fatalf("branch read after GC: %v", err)
	}
	if !bytes.Equal(got, branchGold) {
		t.Fatal("branch snapshot changed after GC")
	}

	// GC also reclaims the expired snapshots' metadata: the DHT holds
	// measurably fewer tree nodes than before.
	if stats.DeletedNodes == 0 {
		t.Fatalf("GC deleted no metadata nodes: %+v", stats)
	}
}

// TestInMemoryGCReturnsRAM: a cluster without DiskDir, its compaction
// left at the zero value, gives the RAM of the pages Blob.GC deletes
// back on its own once their segments are sealed: store_log_bytes,
// which in memory is RAM held, falls with no explicit compaction.
func TestInMemoryGCReturnsRAM(t *testing.T) {
	cl, err := blobseer.StartCluster(blobseer.ClusterOptions{
		PageStore: blobseer.PageStoreOptions{SegmentBytes: 16 << 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	c, err := cl.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	const ps = 4096
	blob, err := c.Create(ctx, blobseer.Options{PageSize: ps})
	if err != nil {
		t.Fatal(err)
	}
	var last blobseer.Version
	for i := 0; i < 8; i++ {
		if last, err = blob.Write(ctx, bytes.Repeat([]byte{byte(i + 1)}, 16*ps), 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := blob.Sync(ctx, last); err != nil {
		t.Fatal(err)
	}
	held := func() uint64 { return cl.Series("store_log_bytes", "role", "data") }
	before := held()
	if _, err := blob.Expire(ctx, last-1); err != nil {
		t.Fatal(err)
	}
	if stats, err := blob.GC(ctx); err != nil || stats.DeletedPages == 0 {
		t.Fatalf("GC: %+v, %v", stats, err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for held() > before/2 {
		if time.Now().After(deadline) {
			t.Fatalf("store_log_bytes %d -> %d after GC of 7 of 8 versions; want at most %d", before, held(), before/2)
		}
		time.Sleep(10 * time.Millisecond)
	}
	got := make([]byte, 16*ps)
	if err := blob.Read(ctx, last, got, 0); err != nil || !bytes.Equal(got, bytes.Repeat([]byte{8}, 16*ps)) {
		t.Fatalf("retained version after compaction: %v", err)
	}
}

// TestMetadataReclamationDurableRestart is the end-to-end metadata
// reclamation story on durable nodes: expire + GC shrinks the DHT's
// in-memory footprint, compaction shrinks the on-disk metadata logs,
// and a full cluster restart — recovering each node from its index
// snapshot plus tail replay — serves every retained snapshot and the
// branch byte-identically while the expired metadata stays gone.
func TestMetadataReclamationDurableRestart(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cluster")
	ctx := context.Background()
	opts := blobseer.ClusterOptions{
		DataProviders:     2,
		MetadataProviders: 2,
		DiskDir:           dir,
		MetaLog:           blobseer.MetaLogOptions{SegmentBytes: 4 << 10, SnapshotEvery: 64},
	}
	cl, err := blobseer.StartCluster(opts)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cl.Client()
	if err != nil {
		t.Fatal(err)
	}
	const ps = 512
	blob, err := c.Create(ctx, blobseer.Options{PageSize: ps})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := blob.Append(ctx, bytes.Repeat([]byte{0xA0}, 8*ps)); err != nil {
		t.Fatal(err)
	}
	var last blobseer.Version
	for i := 0; i < 16; i++ {
		chunk := bytes.Repeat([]byte{byte(0x41 + i)}, 3*ps)
		if last, err = blob.Write(ctx, chunk, uint64(i%3)*ps); err != nil {
			t.Fatal(err)
		}
	}
	if err := blob.Sync(ctx, last); err != nil {
		t.Fatal(err)
	}
	branchAt := last - 3
	branch, err := blob.Branch(ctx, branchAt)
	if err != nil {
		t.Fatal(err)
	}
	branchGold := make([]byte, 8*ps)
	if err := branch.Read(ctx, branchAt, branchGold, 0); err != nil {
		t.Fatal(err)
	}
	golden := make(map[blobseer.Version][]byte)
	for v := branchAt; v <= last; v++ {
		buf := make([]byte, 8*ps)
		if err := blob.Read(ctx, v, buf, 0); err != nil {
			t.Fatal(err)
		}
		golden[v] = buf
	}

	meta := func(cl *blobseer.Cluster, name string) uint64 { return cl.Series(name, "role", "metadata") }
	keysBefore, bytesBefore := meta(cl, "store_keys"), meta(cl, "store_value_bytes")
	logBefore := meta(cl, "store_log_bytes")
	floor, err := blob.Expire(ctx, branchAt-1)
	if err != nil {
		t.Fatal(err)
	}
	if floor != branchAt {
		t.Fatalf("floor = %d, want %d", floor, branchAt)
	}
	stats, err := blob.GC(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.DeletedNodes == 0 {
		t.Fatalf("GC deleted no metadata nodes: %+v", stats)
	}
	keysAfter, bytesAfter := meta(cl, "store_keys"), meta(cl, "store_value_bytes")
	if keysAfter >= keysBefore || bytesAfter >= bytesBefore {
		t.Fatalf("DHT footprint did not shrink: %d keys/%d bytes -> %d/%d",
			keysBefore, bytesBefore, keysAfter, bytesAfter)
	}
	if err := cl.CompactMetadata(); err != nil {
		t.Fatal(err)
	}
	logAfter := meta(cl, "store_log_bytes")
	if logAfter >= logBefore {
		t.Fatalf("on-disk metadata logs did not shrink: %d -> %d bytes", logBefore, logAfter)
	}
	blobID, branchID := blob.ID(), branch.ID()
	c.Close()
	cl.Close()

	// Restart: every durable node recovers from its index snapshot plus
	// tail replay (the compaction above wrote covering snapshots).
	cl2, err := blobseer.StartCluster(opts)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer cl2.Close()
	if k, b := meta(cl2, "store_keys"), meta(cl2, "store_value_bytes"); k != keysAfter || b != bytesAfter {
		t.Fatalf("restart changed metadata stats: %d/%d -> %d/%d", keysAfter, bytesAfter, k, b)
	}
	c2, err := cl2.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	blob2, err := c2.Open(ctx, blobID)
	if err != nil {
		t.Fatal(err)
	}
	for v := branchAt; v <= last; v++ {
		got := make([]byte, 8*ps)
		if err := blob2.Read(ctx, v, got, 0); err != nil {
			t.Fatalf("retained v%d after restart: %v", v, err)
		}
		if !bytes.Equal(got, golden[v]) {
			t.Fatalf("retained v%d corrupted across restart", v)
		}
	}
	branch2, err := c2.Open(ctx, branchID)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 8*ps)
	if err := branch2.Read(ctx, branchAt, got, 0); err != nil || !bytes.Equal(got, branchGold) {
		t.Fatalf("branch after restart: %v", err)
	}
	// Expired history stays expired and its metadata stays gone.
	if err := blob2.Read(ctx, 2, make([]byte, ps), 0); err == nil {
		t.Fatal("expired snapshot readable after restart")
	}
}
