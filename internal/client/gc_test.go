package client_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"blobseer/internal/client"
	"blobseer/internal/cluster"
	"blobseer/internal/obs"
	"blobseer/internal/pagestore"
	"blobseer/internal/transport"
	"blobseer/internal/wire"
)

// providerPages sums live page counts and sizes over the cluster's data
// providers.
func providerPages(cl *cluster.Cluster) (pages, bytes uint64) { return stored(cl, "data") }

// metaStats sums key counts and value sizes over the cluster's metadata
// nodes.
func metaStats(cl *cluster.Cluster) (keys, bytes uint64) { return stored(cl, "metadata") }

func stored(cl *cluster.Cluster, role string) (keys, bytes uint64) {
	return uint64(obs.Value(cl, "store_keys", "role", role)), uint64(obs.Value(cl, "store_value_bytes", "role", role))
}

func TestGCReclaimsExpiredPages(t *testing.T) {
	cl, c := newCluster(t, cluster.Config{})
	ctx := ctxb()
	const ps = 256
	id, err := c.Create(ctx, ps)
	if err != nil {
		t.Fatal(err)
	}
	// Initial blob of 8 pages, then churn: every overwrite replaces the
	// same 4 pages, so expired versions hold exclusive garbage while the
	// untouched half stays shared all the way to the newest snapshot.
	if _, err := c.Append(ctx, id, pattern(1, 8*ps)); err != nil {
		t.Fatal(err)
	}
	var last wire.Version
	for i := 0; i < 10; i++ {
		last, err = c.Write(ctx, id, pattern(byte(10+i), 4*ps), 0)
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Sync(ctx, id, last); err != nil {
		t.Fatal(err)
	}
	// Golden copies of every snapshot before any expiry.
	golden := make(map[wire.Version][]byte)
	for v := wire.Version(1); v <= last; v++ {
		sz, err := c.Size(ctx, id, v)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, sz)
		if err := c.Read(ctx, id, v, buf, 0); err != nil {
			t.Fatalf("read v%d: %v", v, err)
		}
		golden[v] = buf
	}
	pagesBefore, _ := providerPages(cl)
	metaKeysBefore, metaBytesBefore := metaStats(cl)

	floor, expired, err := c.ExpireVersions(ctx, id, last-2)
	if err != nil {
		t.Fatal(err)
	}
	if floor != last-1 {
		t.Fatalf("floor = %d, want %d", floor, last-1)
	}
	if len(expired) != int(last-2)+1 { // versions 0..last-2
		t.Fatalf("expired %d versions: %v", len(expired), expired)
	}
	stats, err := c.CollectGarbage(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if stats.DeletedPages == 0 || stats.DeletedNodes == 0 || stats.RetainedNodes == 0 {
		t.Fatalf("stats = %+v: churn must yield garbage plus shared structure", stats)
	}
	pagesAfter, _ := providerPages(cl)
	if pagesAfter != pagesBefore-uint64(stats.DeletedPages) {
		t.Fatalf("provider pages %d -> %d, deleted %d", pagesBefore, pagesAfter, stats.DeletedPages)
	}
	metaKeysAfter, metaBytesAfter := metaStats(cl)
	if metaKeysAfter != metaKeysBefore-uint64(stats.DeletedNodes) {
		t.Fatalf("metadata keys %d -> %d, deleted %d nodes",
			metaKeysBefore, metaKeysAfter, stats.DeletedNodes)
	}
	if metaBytesAfter >= metaBytesBefore {
		t.Fatalf("metadata bytes did not shrink: %d -> %d", metaBytesBefore, metaBytesAfter)
	}
	// Each expired overwrite owned exactly its 4 exclusive pages, except
	// those the retained snapshots still share; the initial append's
	// untouched pages must all survive.
	if pagesAfter < 8 {
		t.Fatalf("only %d pages left", pagesAfter)
	}

	// Every retained version reads back byte-identical — both through
	// the client whose cache may still hold deleted nodes, and through a
	// fresh cache-less client that must walk the pruned DHT itself.
	fresh, err := cl.NewClientCfg("", func(cc *client.Config) { cc.MetaCacheNodes = -1 })
	if err != nil {
		t.Fatal(err)
	}
	for v := floor; v <= last; v++ {
		for name, rc := range map[string]*client.Client{"cached": c, "fresh": fresh} {
			buf := make([]byte, len(golden[v]))
			if err := rc.Read(ctx, id, v, buf, 0); err != nil {
				t.Fatalf("retained v%d unreadable after GC (%s client): %v", v, name, err)
			}
			if !bytes.Equal(buf, golden[v]) {
				t.Fatalf("retained v%d changed after GC (%s client)", v, name)
			}
		}
	}
	// Every expired version is gone.
	for v := wire.Version(1); v < floor; v++ {
		if err := c.Read(ctx, id, v, make([]byte, 1), 0); err == nil {
			t.Fatalf("expired v%d still readable", v)
		}
	}
	// Idempotent re-run: the expired walks prune subtrees the first
	// sweep already collected (or re-issue no-op deletes where the
	// client cache still names them) and remove nothing.
	if _, err := c.CollectGarbage(ctx, id); err != nil {
		t.Fatal(err)
	}
	if again, _ := providerPages(cl); again != pagesAfter {
		t.Fatalf("re-run changed provider pages: %d -> %d", pagesAfter, again)
	}
	if again, _ := metaStats(cl); again != metaKeysAfter {
		t.Fatalf("re-run changed metadata keys: %d -> %d", metaKeysAfter, again)
	}
	// A second re-run through the fresh client sees the already-pruned
	// trees (no cache to mask the deletions) and must also be a no-op.
	if _, err := fresh.CollectGarbage(ctx, id); err != nil {
		t.Fatal(err)
	}
	if again, _ := metaStats(cl); again != metaKeysAfter {
		t.Fatalf("fresh-client re-run changed metadata keys: %d", again)
	}
}

func TestGCKeepsPagesSharedWithBranches(t *testing.T) {
	_, c := newCluster(t, cluster.Config{})
	ctx := ctxb()
	const ps = 256
	id, err := c.Create(ctx, ps)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Append(ctx, id, pattern(1, 8*ps)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := c.Write(ctx, id, pattern(byte(10+i), 2*ps), 0); err != nil {
			t.Fatal(err)
		}
	}
	branchAt := wire.Version(6)
	child, err := c.Branch(ctx, id, branchAt)
	if err != nil {
		t.Fatal(err)
	}
	// The branch diverges: overwrite the tail, keep sharing the head
	// (which the parent's expired versions also reference).
	if _, err := c.Write(ctx, child, pattern(99, 2*ps), 6*ps); err != nil {
		t.Fatal(err)
	}
	var last wire.Version
	for i := 0; i < 4; i++ {
		if last, err = c.Write(ctx, id, pattern(byte(30+i), 2*ps), 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Sync(ctx, id, last); err != nil {
		t.Fatal(err)
	}
	if err := c.Sync(ctx, child, branchAt+1); err != nil {
		t.Fatal(err)
	}
	childGold := make([]byte, 8*ps)
	if err := c.Read(ctx, child, branchAt+1, childGold, 0); err != nil {
		t.Fatal(err)
	}
	branchGold := make([]byte, 8*ps)
	if err := c.Read(ctx, child, branchAt, branchGold, 0); err != nil {
		t.Fatal(err)
	}

	// Expiring past the branch point is rejected.
	if _, _, err := c.ExpireVersions(ctx, id, branchAt); err == nil {
		t.Fatal("expire across the branch point succeeded")
	}
	// Expiring below it works; GC must keep everything the branch shares.
	floor, _, err := c.ExpireVersions(ctx, id, branchAt-1)
	if err != nil {
		t.Fatal(err)
	}
	if floor != branchAt {
		t.Fatalf("floor = %d, want %d", floor, branchAt)
	}
	if _, err := c.CollectGarbage(ctx, id); err != nil {
		t.Fatal(err)
	}

	// The branch point snapshot and the branch's own head both read back
	// byte-identical through the shared metadata.
	got := make([]byte, 8*ps)
	if err := c.Read(ctx, child, branchAt, got, 0); err != nil {
		t.Fatalf("branch-point read after parent GC: %v", err)
	}
	if !bytes.Equal(got, branchGold) {
		t.Fatal("branch-point snapshot changed after parent GC")
	}
	if err := c.Read(ctx, child, branchAt+1, got, 0); err != nil {
		t.Fatalf("branch head read after parent GC: %v", err)
	}
	if !bytes.Equal(got, childGold) {
		t.Fatal("branch head changed after parent GC")
	}
}

// TestGCUnderConcurrentChurn expires and collects while a writer keeps
// churning the same blob and branches keep being taken: every retained
// version and every branch must read back byte-identical at the end —
// no reachable page is ever deleted.
func TestGCUnderConcurrentChurn(t *testing.T) {
	cl, c := newCluster(t, cluster.Config{DataProviders: 4, MetaProviders: 4})
	_ = cl
	ctx := ctxb()
	const ps = 128
	const rounds = 60
	id, err := c.Create(ctx, ps)
	if err != nil {
		t.Fatal(err)
	}

	type branchRef struct {
		id   wire.BlobID
		at   wire.Version
		gold []byte
	}
	var (
		mu       sync.Mutex
		golden   = make(map[wire.Version][]byte)
		branches []branchRef
		pinAt    wire.Version // oldest branch point; 0 = no branch yet
	)
	var expect []byte
	apply := func(off uint64, chunk []byte) {
		if end := off + uint64(len(chunk)); end > uint64(len(expect)) {
			expect = append(expect, make([]byte, end-uint64(len(expect)))...)
		}
		copy(expect[off:], chunk)
	}

	var wg sync.WaitGroup
	gcErr := make(chan error, 1)
	done := make(chan struct{})
	// Collector: expire aggressively and sweep, staying below any branch
	// pin and tolerating refusals from in-flight bases — under churn
	// those are routine, not failures.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			v, _, err := c.Recent(ctx, id)
			if err != nil || v <= 4 {
				continue
			}
			upTo := v - 4
			mu.Lock()
			if pinAt != 0 && upTo >= pinAt {
				upTo = pinAt - 1
			}
			mu.Unlock()
			if upTo == 0 {
				continue
			}
			if _, _, err := c.ExpireVersions(ctx, id, upTo); err != nil && wire.CodeOf(err) != wire.CodeBadRequest {
				select {
				case gcErr <- fmt.Errorf("expire: %w", err):
				default:
				}
				return
			}
			if _, err := c.CollectGarbage(ctx, id); err != nil {
				select {
				case gcErr <- fmt.Errorf("gc: %w", err):
				default:
				}
				return
			}
		}
	}()

	// Writer: deterministic single-writer churn (appends and overwrites,
	// page-aligned and not), recording the expected contents per version.
	for i := 0; i < rounds; i++ {
		var v wire.Version
		switch i % 3 {
		case 0: // append one page
			chunk := pattern(byte(i), ps)
			if v, err = c.Append(ctx, id, chunk); err != nil {
				t.Fatal(err)
			}
			apply(uint64(len(expect)), chunk)
		case 1: // aligned overwrite of two pages at the front
			chunk := pattern(byte(i), 2*ps)
			if v, err = c.Write(ctx, id, chunk, 0); err != nil {
				t.Fatal(err)
			}
			apply(0, chunk)
		case 2: // unaligned overwrite straddling the final page boundary
			chunk := pattern(byte(i), ps)
			off := uint64(len(expect)) - uint64(ps/2)
			if v, err = c.Write(ctx, id, chunk, off); err != nil {
				t.Fatal(err)
			}
			apply(off, chunk)
		}
		mu.Lock()
		golden[v] = append([]byte(nil), expect...)
		mu.Unlock()
		if i == rounds*3/4 {
			// Take a branch at the current published head and freeze its
			// expected contents; the collector must stay below it from
			// here on.
			if err := c.Sync(ctx, id, v); err != nil {
				t.Fatal(err)
			}
			bid, err := c.Branch(ctx, id, v)
			if err != nil {
				t.Fatal(err)
			}
			mu.Lock()
			branches = append(branches, branchRef{id: bid, at: v, gold: append([]byte(nil), expect...)})
			if pinAt == 0 || v < pinAt {
				pinAt = v
			}
			mu.Unlock()
		}
	}
	lastV, _, err := c.Recent(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Sync(ctx, id, lastV); err != nil {
		t.Fatal(err)
	}
	close(done)
	wg.Wait()
	select {
	case err := <-gcErr:
		t.Fatal(err)
	default:
	}

	// One final expire+sweep with no traffic (nothing in flight, the pin
	// respected), then verify everything.
	mu.Lock()
	final := pinAt - 1
	mu.Unlock()
	floor, _, err := c.ExpireVersions(ctx, id, final)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.CollectGarbage(ctx, id); err != nil {
		t.Fatal(err)
	}
	for v, want := range golden {
		if v < floor {
			continue // expired during the run
		}
		got := make([]byte, len(want))
		if err := c.Read(ctx, id, v, got, 0); err != nil {
			t.Fatalf("retained v%d unreadable: %v", v, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("retained v%d corrupted by concurrent GC", v)
		}
	}
	for _, br := range branches {
		got := make([]byte, len(br.gold))
		if err := c.Read(ctx, br.id, br.at, got, 0); err != nil {
			t.Fatalf("branch %v at v%d unreadable: %v", br.id, br.at, err)
		}
		if !bytes.Equal(got, br.gold) {
			t.Fatalf("branch %v at v%d corrupted by GC", br.id, br.at)
		}
	}
}

// TestGCCrashBetweenDeletesAndCompaction kills the collector after only
// part of its deletes were issued, verifies nothing reachable was lost,
// re-runs the sweep to completion and then compacts the provider page
// logs, proving the bytes actually come back.
func TestGCCrashBetweenDeletesAndCompaction(t *testing.T) {
	dir := t.TempDir()
	cl, c := newCluster(t, cluster.Config{
		DataProviders: 2,
		PageDir:       dir,
		PageStore: pagestore.DiskOptions{
			SegmentBytes: 8 << 10,
			CompactRatio: 0.9,
		},
	})
	ctx := ctxb()
	const ps = 256
	id, err := c.Create(ctx, ps)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Append(ctx, id, pattern(1, 8*ps)); err != nil {
		t.Fatal(err)
	}
	var last wire.Version
	for i := 0; i < 20; i++ {
		if last, err = c.Write(ctx, id, pattern(byte(10+i), 4*ps), 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Sync(ctx, id, last); err != nil {
		t.Fatal(err)
	}
	golden := make([]byte, 8*ps)
	if err := c.Read(ctx, id, last, golden, 0); err != nil {
		t.Fatal(err)
	}
	prevGold := make([]byte, 8*ps)
	if err := c.Read(ctx, id, last-1, prevGold, 0); err != nil {
		t.Fatal(err)
	}

	if _, _, err := c.ExpireVersions(ctx, id, last-2); err != nil {
		t.Fatal(err)
	}
	// Crash: only the first delete batch lands.
	c.SetGCCrashHook(func(chunk int) error {
		if chunk > 0 {
			return fmt.Errorf("injected collector crash before batch %d", chunk)
		}
		return nil
	})
	if _, err := c.CollectGarbage(ctx, id); err == nil {
		t.Fatal("crashed GC reported success")
	}
	c.SetGCCrashHook(nil)

	// The partial sweep deleted only unreachable pages: both retained
	// snapshots still read back byte-identical.
	for v, want := range map[wire.Version][]byte{last: golden, last - 1: prevGold} {
		got := make([]byte, len(want))
		if err := c.Read(ctx, id, v, got, 0); err != nil {
			t.Fatalf("retained v%d after crashed GC: %v", v, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("retained v%d corrupted by crashed GC", v)
		}
	}

	// Re-run to completion, then compact the page logs and measure.
	logBytes := func() uint64 { return uint64(obs.Value(cl, "store_log_bytes", "role", "data")) }
	before := logBytes()
	stats, err := c.CollectGarbage(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if stats.DeletedPages == 0 {
		t.Fatal("re-run found nothing to delete")
	}
	for _, p := range cl.Providers {
		if err := p.Store().(*pagestore.Disk).Compact(); err != nil {
			t.Fatal(err)
		}
	}
	after := logBytes()
	if after >= before {
		t.Fatalf("page logs did not shrink: %d -> %d bytes", before, after)
	}
	for v, want := range map[wire.Version][]byte{last: golden, last - 1: prevGold} {
		got := make([]byte, len(want))
		if err := c.Read(ctx, id, v, got, 0); err != nil {
			t.Fatalf("retained v%d after compaction: %v", v, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("retained v%d corrupted by compaction", v)
		}
	}
}

// TestGCVsReadersStress runs concurrent cache-less readers over the
// whole version history while a collector expires snapshots and deletes
// their pages AND metadata tree nodes. The invariants, asserted under
// -race: a read that succeeds is byte-identical to the golden copy no
// matter how it interleaved with the sweep (pages and nodes are
// immutable — deletion removes, never mutates), a read may only fail
// for a version the collector was allowed to expire, and the branch
// pinned above the expiry bound never fails at all. Afterwards the DHT
// must hold measurably fewer keys and bytes.
func TestGCVsReadersStress(t *testing.T) {
	cl, c := newCluster(t, cluster.Config{DataProviders: 4, MetaProviders: 4})
	ctx := ctxb()
	const ps = 128
	const rounds = 24
	id, err := c.Create(ctx, ps)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Append(ctx, id, pattern(1, 8*ps)); err != nil {
		t.Fatal(err)
	}
	golden := make(map[wire.Version][]byte)
	expect := pattern(1, 8*ps)
	golden[1] = append([]byte(nil), expect...)
	var last wire.Version
	for i := 0; i < rounds; i++ {
		chunk := pattern(byte(10+i), 2*ps)
		off := uint64((i % 4) * 2 * ps)
		if last, err = c.Write(ctx, id, chunk, off); err != nil {
			t.Fatal(err)
		}
		copy(expect[off:], chunk)
		golden[last] = append([]byte(nil), expect...)
	}
	if err := c.Sync(ctx, id, last); err != nil {
		t.Fatal(err)
	}
	// The branch pins its branch point; the collector stays below it.
	branchAt := last - 4
	child, err := c.Branch(ctx, id, branchAt)
	if err != nil {
		t.Fatal(err)
	}
	expireBound := branchAt - 1

	keysBefore, bytesBefore := metaStats(cl)
	done := make(chan struct{})
	fail := make(chan error, 16)
	report := func(err error) {
		select {
		case fail <- err:
		default:
		}
	}
	var wg sync.WaitGroup
	// Readers: separate cache-less clients, so every walk hits the DHT
	// the collector is concurrently deleting from.
	for r := 0; r < 3; r++ {
		reader, err := cl.NewClientCfg("", func(cc *client.Config) { cc.MetaCacheNodes = -1 })
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			v := wire.Version(seed)
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				v = 1 + (v+wire.Version(i))%last
				want := golden[v]
				buf := make([]byte, len(want))
				err := reader.Read(ctx, id, v, buf, 0)
				switch {
				case err == nil:
					if !bytes.Equal(buf, want) {
						report(fmt.Errorf("reader: v%d read succeeded with wrong bytes under GC", v))
						return
					}
				case v > expireBound:
					report(fmt.Errorf("reader: retained v%d failed under GC: %w", v, err))
					return
				}
				// The branch point is pinned: it must never fail.
				got := make([]byte, len(golden[branchAt]))
				if err := reader.Read(ctx, child, branchAt, got, 0); err != nil {
					report(fmt.Errorf("reader: pinned branch point v%d failed: %w", branchAt, err))
					return
				}
				if !bytes.Equal(got, golden[branchAt]) {
					report(fmt.Errorf("reader: pinned branch point v%d corrupted", branchAt))
					return
				}
			}
		}(r)
	}
	// Collector: expire step by step and sweep after every step, so
	// deletes keep landing while the readers walk.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for upTo := wire.Version(2); upTo <= expireBound; upTo++ {
			if _, _, err := c.ExpireVersions(ctx, id, upTo); err != nil {
				report(fmt.Errorf("expire %d: %w", upTo, err))
				return
			}
			if _, err := c.CollectGarbage(ctx, id); err != nil {
				report(fmt.Errorf("gc at %d: %w", upTo, err))
				return
			}
		}
	}()
	wg.Wait()
	select {
	case err := <-fail:
		t.Fatal(err)
	default:
	}

	keysAfter, bytesAfter := metaStats(cl)
	if keysAfter >= keysBefore || bytesAfter >= bytesBefore {
		t.Fatalf("metadata did not shrink under GC: %d keys/%d bytes -> %d/%d",
			keysBefore, bytesBefore, keysAfter, bytesAfter)
	}
	// Quiescent verification: every retained version and the branch read
	// back byte-identical through a fresh cache-less client.
	fresh, err := cl.NewClientCfg("", func(cc *client.Config) { cc.MetaCacheNodes = -1 })
	if err != nil {
		t.Fatal(err)
	}
	for v := expireBound + 1; v <= last; v++ {
		buf := make([]byte, len(golden[v]))
		if err := fresh.Read(ctx, id, v, buf, 0); err != nil {
			t.Fatalf("retained v%d after stress: %v", v, err)
		}
		if !bytes.Equal(buf, golden[v]) {
			t.Fatalf("retained v%d corrupted by stress", v)
		}
	}
	got := make([]byte, len(golden[branchAt]))
	if err := fresh.Read(ctx, child, branchAt, got, 0); err != nil || !bytes.Equal(got, golden[branchAt]) {
		t.Fatalf("branch after stress: %v", err)
	}
}

// TestGCCrashBetweenPageAndNodeDeletes kills the collector after every
// page delete landed but before any metadata delete, then re-runs: the
// re-run's tolerant expired walk must still find and remove the
// metadata, and nothing retained may be harmed at either point.
func TestGCCrashBetweenPageAndNodeDeletes(t *testing.T) {
	cl, c := newCluster(t, cluster.Config{DataProviders: 2, MetaProviders: 2})
	ctx := ctxb()
	const ps = 256
	id, err := c.Create(ctx, ps)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Append(ctx, id, pattern(1, 8*ps)); err != nil {
		t.Fatal(err)
	}
	var last wire.Version
	for i := 0; i < 10; i++ {
		if last, err = c.Write(ctx, id, pattern(byte(10+i), 4*ps), 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Sync(ctx, id, last); err != nil {
		t.Fatal(err)
	}
	golden := make([]byte, 8*ps)
	if err := c.Read(ctx, id, last, golden, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.ExpireVersions(ctx, id, last-2); err != nil {
		t.Fatal(err)
	}

	// With 2 data providers and fewer victims than a batch, the page
	// sweep issues exactly 2 chunks; chunk numbering continues into the
	// metadata batches, so failing every chunk >= 2 crashes the
	// collector exactly between the two sweeps.
	pagesBefore, _ := providerPages(cl)
	metaBefore, _ := metaStats(cl)
	c.SetGCCrashHook(func(chunk int) error {
		if chunk >= 2 {
			return fmt.Errorf("injected crash before metadata batch %d", chunk)
		}
		return nil
	})
	if _, err := c.CollectGarbage(ctx, id); err == nil {
		t.Fatal("crashed GC reported success")
	}
	c.SetGCCrashHook(nil)
	pagesMid, _ := providerPages(cl)
	if pagesMid >= pagesBefore {
		t.Fatalf("page sweep did not land before the crash: %d -> %d", pagesBefore, pagesMid)
	}
	if metaMid, _ := metaStats(cl); metaMid != metaBefore {
		t.Fatalf("metadata deletes leaked past the crash point: %d -> %d", metaBefore, metaMid)
	}
	// The retained snapshot survived the partial sweep.
	got := make([]byte, len(golden))
	if err := c.Read(ctx, id, last, got, 0); err != nil || !bytes.Equal(got, golden) {
		t.Fatalf("retained head after crashed GC: %v", err)
	}

	// Re-run to completion: pages are already gone (no-op deletes), the
	// metadata sweep now lands.
	stats, err := c.CollectGarbage(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if stats.DeletedNodes == 0 {
		t.Fatal("re-run deleted no metadata nodes")
	}
	metaAfter, _ := metaStats(cl)
	if metaAfter != metaBefore-uint64(stats.DeletedNodes) {
		t.Fatalf("metadata keys %d -> %d, deleted %d", metaBefore, metaAfter, stats.DeletedNodes)
	}
	if err := c.Read(ctx, id, last, got, 0); err != nil || !bytes.Equal(got, golden) {
		t.Fatalf("retained head after completed GC: %v", err)
	}
}

// TestGCCrashMidNodeSweepLeavesNoOrphans kills the collector in the
// middle of the metadata sweep — after the leaf level landed but before
// any inner level — and re-runs through a cache-less client. Node
// deletion is ordered bottom-up precisely so this works: the surviving
// inner nodes still lead the re-walk to every remaining victim, and the
// final DHT key count equals exactly "before minus the full victim
// set" — nothing stranded, nothing leaked.
func TestGCCrashMidNodeSweepLeavesNoOrphans(t *testing.T) {
	cl, c := newCluster(t, cluster.Config{DataProviders: 2, MetaProviders: 2})
	ctx := ctxb()
	const ps = 256
	id, err := c.Create(ctx, ps)
	if err != nil {
		t.Fatal(err)
	}
	// The collector must not be shielded by a metadata cache, or the
	// re-run would re-walk from memory instead of the pruned DHT.
	collector, err := cl.NewClientCfg("", func(cc *client.Config) { cc.MetaCacheNodes = -1 })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Append(ctx, id, pattern(1, 8*ps)); err != nil {
		t.Fatal(err)
	}
	var last wire.Version
	for i := 0; i < 12; i++ {
		if last, err = c.Write(ctx, id, pattern(byte(10+i), 4*ps), 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Sync(ctx, id, last); err != nil {
		t.Fatal(err)
	}
	golden := make([]byte, 8*ps)
	if err := c.Read(ctx, id, last, golden, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.ExpireVersions(ctx, id, last-2); err != nil {
		t.Fatal(err)
	}

	// Chunks 0-1 are the two providers' page batches, chunk 2 the
	// span-1 (leaf) metadata level; failing from chunk 3 on kills the
	// collector with leaves deleted and every inner victim still there.
	metaBefore, _ := metaStats(cl)
	collector.SetGCCrashHook(func(chunk int) error {
		if chunk >= 3 {
			return fmt.Errorf("injected crash at metadata chunk %d", chunk)
		}
		return nil
	})
	if _, err := collector.CollectGarbage(ctx, id); err == nil {
		t.Fatal("crashed GC reported success")
	}
	collector.SetGCCrashHook(nil)
	metaMid, _ := metaStats(cl)
	if metaMid >= metaBefore {
		t.Fatalf("leaf level did not land before the crash: %d -> %d", metaBefore, metaMid)
	}

	// The cache-less re-run must rediscover the complete victim set
	// through the surviving inner nodes (deleted leaves are re-issued as
	// no-ops), so the final count proves no descendant was orphaned.
	stats, err := collector.CollectGarbage(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	metaAfter, _ := metaStats(cl)
	if metaAfter != metaBefore-uint64(stats.DeletedNodes) {
		t.Fatalf("orphaned metadata: %d keys left, want %d (%d before, full victim set %d)",
			metaAfter, metaBefore-uint64(stats.DeletedNodes), metaBefore, stats.DeletedNodes)
	}
	// A third sweep finds nothing more to remove.
	if _, err := collector.CollectGarbage(ctx, id); err != nil {
		t.Fatal(err)
	}
	if again, _ := metaStats(cl); again != metaAfter {
		t.Fatalf("third sweep changed metadata keys: %d -> %d", metaAfter, again)
	}
	got := make([]byte, len(golden))
	if err := collector.Read(ctx, id, last, got, 0); err != nil || !bytes.Equal(got, golden) {
		t.Fatalf("retained head after mid-sweep crash recovery: %v", err)
	}
}

// Abandoned optimistic append pages and aborted updates' pages are
// reclaimed eagerly by the writer that owns them.
func TestWriterReclaimsAbandonedPages(t *testing.T) {
	cl, c := newCluster(t, cluster.Config{})
	ctx := ctxb()
	const ps = 4096
	id, err := c.Create(ctx, ps)
	if err != nil {
		t.Fatal(err)
	}
	// Unaligned tail: the next append's optimistic bet must fail.
	if _, err := c.Append(ctx, id, pattern(1, 100)); err != nil {
		t.Fatal(err)
	}
	v, err := c.Append(ctx, id, pattern(2, ps))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Sync(ctx, id, v); err != nil {
		t.Fatal(err)
	}
	// Live pages: v1's single short page + v2's two merged pages. The
	// abandoned optimistic page was deleted, not orphaned.
	if pages, _ := providerPages(cl); pages != 3 {
		t.Fatalf("provider pages = %d, want 3 (no orphans)", pages)
	}
	got := make([]byte, 100+ps)
	if err := c.Read(ctx, id, v, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:100], pattern(1, 100)) || !bytes.Equal(got[100:], pattern(2, ps)) {
		t.Fatal("merged append content wrong")
	}

	// Aborted update: fail metadata weaving by killing every metadata
	// node; the stored pages must be reclaimed when the abort lands.
	pagesBefore, _ := providerPages(cl)
	for i := range cl.MetaNodes {
		cl.MetaNodes[i].Close()
	}
	if _, err := c.Write(ctx, id, pattern(3, ps), 0); err == nil {
		t.Fatal("write with dead metadata nodes succeeded")
	}
	if pages, _ := providerPages(cl); pages != pagesBefore {
		t.Fatalf("aborted update leaked pages: %d -> %d", pagesBefore, pages)
	}
}

// killOnMetaDial is a client network whose first dial of a metadata
// node kills every data provider and fails: an update's pages are stored
// by then, and its abort's reclaim finds their provider gone.
type killOnMetaDial struct {
	transport.Network
	cl   *cluster.Cluster
	once sync.Once
}

func (n *killOnMetaDial) Dial(ctx context.Context, addr string) (transport.Conn, error) {
	if !strings.HasPrefix(addr, "meta-") {
		return n.Network.Dial(ctx, addr)
	}
	n.once.Do(func() {
		for i := range n.cl.Providers {
			n.cl.Kill("data", i)
		}
	})
	return nil, errors.New("metadata node unreachable")
}

// A reclaim that fails leaves garbage no collection will find; the
// client's series is where it shows.
func TestReclaimFailureIsCounted(t *testing.T) {
	cl, _ := newCluster(t, cluster.Config{DataProviders: 1})
	c, err := cl.NewClientCfg("", func(cfg *client.Config) {
		cfg.Net = &killOnMetaDial{Network: cfg.Net, cl: cl}
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := ctxb()
	id, err := c.Create(ctx, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(ctx, id, pattern(1, 4096), 0); err == nil {
		t.Fatal("write with no metadata node reachable succeeded")
	}
	if n := obs.Value(c, "client_reclaim_failures_total"); n != 1 {
		t.Fatalf("reclaim failures = %v, want 1: the aborted update's one provider was dead", n)
	}
}
