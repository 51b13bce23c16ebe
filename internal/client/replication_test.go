package client_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"blobseer/internal/client"
	"blobseer/internal/cluster"
	"blobseer/internal/simnet"
	"blobseer/internal/vclock"
)

// TestReplicatedWriteStoresAllCopies verifies that with PageReplication=2
// every page is physically stored twice across the providers.
func TestReplicatedWriteStoresAllCopies(t *testing.T) {
	cl, c := newCluster(t, cluster.Config{DataProviders: 4, PageReplication: 2})
	id, err := c.Create(ctxb(), 256)
	if err != nil {
		t.Fatal(err)
	}
	data := pattern(3, 8*256) // 8 pages
	v, err := c.Append(ctxb(), id, data)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Sync(ctxb(), id, v); err != nil {
		t.Fatal(err)
	}
	pages, bytesStored := providerPages(cl)
	if pages != 16 {
		t.Fatalf("stored %d physical pages, want 16 (8 logical x 2 copies)", pages)
	}
	if bytesStored != 2*uint64(len(data)) {
		t.Fatalf("stored %d bytes, want %d", bytesStored, 2*len(data))
	}
	got := make([]byte, len(data))
	if err := c.Read(ctxb(), id, v, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read back mismatch")
	}
}

// TestReplicatedReadSurvivesProviderLoss kills providers one at a time and
// checks the blob stays fully readable while at least one replica of every
// page remains.
func TestReplicatedReadSurvivesProviderLoss(t *testing.T) {
	cl, c := newCluster(t, cluster.Config{DataProviders: 3, PageReplication: 2})
	id, err := c.Create(ctxb(), 512)
	if err != nil {
		t.Fatal(err)
	}
	data := pattern(9, 12*512)
	v, err := c.Append(ctxb(), id, data)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Sync(ctxb(), id, v); err != nil {
		t.Fatal(err)
	}

	// Kill one of the three providers: every page keeps >= 1 live replica
	// (copies were placed on distinct providers), so reads must succeed.
	cl.Providers[0].Close()
	got := make([]byte, len(data))
	if err := c.Read(ctxb(), id, v, got, 0); err != nil {
		t.Fatalf("read after one provider died: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read back mismatch after provider loss")
	}

	// Unaligned sub-range read exercises failover on boundary pages too.
	sub := make([]byte, 700)
	if err := c.Read(ctxb(), id, v, sub, 300); err != nil {
		t.Fatalf("sub-range read after provider loss: %v", err)
	}
	if !bytes.Equal(sub, data[300:1000]) {
		t.Fatal("sub-range mismatch after provider loss")
	}
}

// TestUnreplicatedReadFailsAfterProviderLoss pins the contrast: with the
// paper's single-copy layout, losing a provider makes some pages
// unreadable. (This is exactly why the paper lists replication as future
// work.)
func TestUnreplicatedReadFailsAfterProviderLoss(t *testing.T) {
	cl, c := newCluster(t, cluster.Config{DataProviders: 3, PageReplication: 1})
	id, err := c.Create(ctxb(), 512)
	if err != nil {
		t.Fatal(err)
	}
	data := pattern(5, 12*512) // 12 pages round-robin over 3 providers
	v, err := c.Append(ctxb(), id, data)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Sync(ctxb(), id, v); err != nil {
		t.Fatal(err)
	}
	cl.Providers[0].Close()
	got := make([]byte, len(data))
	if err := c.Read(ctxb(), id, v, got, 0); err == nil {
		t.Fatal("read of a blob with a dead sole-copy provider unexpectedly succeeded")
	}
}

// TestPartitionedReplicaFailsOverMidScan cuts a reader off from one of
// three providers in the middle of a cached scan of a blob stored twice.
// Fetches in flight to it are reset and later dials to it refused; the
// scan must complete by failing over to the other copies, with every
// byte right, no flight left behind and every cache entry accounted for.
// Hedging is off, so the only extra fetches are failovers: the scan must
// issue more of them than the same scan without the cut.
func TestPartitionedReplicaFailsOverMidScan(t *testing.T) {
	cfg := cluster.Config{
		DataProviders:   3,
		MetaProviders:   2, // node2 serves pages only: the cut spares the metadata
		PageReplication: 2,
		HeartbeatEvery:  time.Hour,
		ClientRead:      client.ReadTuning{NoHedge: true, PageCacheBytes: 64 << 10},
	}
	runSimCluster(t, cfg, func(clock *vclock.Virtual, net *simnet.Net, cl *cluster.Cluster) error {
		ctx := ctxb()
		w, err := cl.NewClient("writer")
		if err != nil {
			return err
		}
		const ps, pages, chunk = 4096, 48, 4 * 4096
		id, err := w.Create(ctx, ps)
		if err != nil {
			return err
		}
		data := randomBytes(4, ps*pages)
		v, err := w.Append(ctx, id, data)
		if err != nil {
			return err
		}
		if err := w.Sync(ctx, id, v); err != nil {
			return err
		}

		scan := func(c *client.Client) error {
			buf := make([]byte, chunk)
			for off := 0; off < len(data); off += chunk {
				if err := c.Read(ctx, id, v, buf, uint64(off)); err != nil {
					return fmt.Errorf("read at %d: %w", off, err)
				}
				if !bytes.Equal(buf, data[off:off+chunk]) {
					return fmt.Errorf("read at %d: bytes mismatch", off)
				}
			}
			if n := c.PageFlights(); n != 0 {
				return fmt.Errorf("%d unresolved flights", n)
			}
			return c.CheckPageRefs(client.PageEntries{})
		}
		healthy, err := cl.NewClient("reader0")
		if err != nil {
			return err
		}
		start := clock.Now()
		if err := scan(healthy); err != nil {
			return fmt.Errorf("healthy scan: %w", err)
		}
		elapsed := clock.Now() - start

		c, err := cl.NewClient("reader1")
		if err != nil {
			return err
		}
		cut := clock.NewEvent()
		clock.Go(func() {
			clock.Sleep(elapsed / 3)
			net.Partition("reader1", "node2")
			cut.Fire(nil)
		})
		if err := scan(c); err != nil {
			return fmt.Errorf("scan across the cut: %w", err)
		}
		cut.Wait(nil)
		if got, base := readStats(c).FetchRPCs, readStats(healthy).FetchRPCs; got <= base {
			return fmt.Errorf("scan across the cut made %d fetch RPCs, the healthy scan %d: nothing failed over", got, base)
		}
		return nil
	})
}

// TestReplicationDegradedSingleProvider checks that a cluster smaller than
// the replication factor still accepts writes (copies land on the same
// provider rather than failing).
func TestReplicationDegradedSingleProvider(t *testing.T) {
	_, c := newCluster(t, cluster.Config{DataProviders: 1, PageReplication: 3})
	id, err := c.Create(ctxb(), 256)
	if err != nil {
		t.Fatal(err)
	}
	data := pattern(7, 4*256)
	v, err := c.Append(ctxb(), id, data)
	if err != nil {
		t.Fatalf("degraded write: %v", err)
	}
	if err := c.Sync(ctxb(), id, v); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := c.Read(ctxb(), id, v, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read back mismatch")
	}
}

// TestReplicatedConcurrentWritersAndLoss mixes the paper's concurrency
// claim with the replication extension: concurrent appenders, then a
// provider dies, and every snapshot stays readable.
func TestReplicatedConcurrentWritersAndLoss(t *testing.T) {
	cl, c := newCluster(t, cluster.Config{DataProviders: 4, PageReplication: 2})
	id, err := c.Create(ctxb(), 256)
	if err != nil {
		t.Fatal(err)
	}
	const writers = 8
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		w := w
		go func() {
			_, err := c.Append(ctxb(), id, pattern(byte(w), 4*256))
			errs <- err
		}()
	}
	for w := 0; w < writers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Sync(ctxb(), id, writers); err != nil {
		t.Fatal(err)
	}
	cl.Providers[1].Close()
	// Every snapshot (not just the last) must remain fully readable.
	for v := uint64(1); v <= writers; v++ {
		size, err := c.Size(ctxb(), id, v)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, size)
		if err := c.Read(ctxb(), id, v, buf, 0); err != nil {
			t.Fatalf("snapshot %d unreadable after provider loss: %v", v, err)
		}
	}
}
