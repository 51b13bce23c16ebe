package client_test

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blobseer/internal/client"
	"blobseer/internal/cluster"
	"blobseer/internal/pagestore"
	"blobseer/internal/simnet"
	"blobseer/internal/transport"
	"blobseer/internal/vclock"
	"blobseer/internal/wire"
)

// readTuningOff disables every read-path mechanism: the paper's path.
func readTuningOff() client.ReadTuning {
	return client.ReadTuning{PageCacheBytes: -1, NoHedge: true, NoCoalesce: true}
}

// runSimCluster boots a simulated cluster under a virtual clock and runs
// body inside it. All timing in body goes through the virtual clock, so
// the test never sleeps wall-clock time.
func runSimCluster(t testing.TB, cfg cluster.Config, body func(clock *vclock.Virtual, net *simnet.Net, cl *cluster.Cluster) error) {
	t.Helper()
	clock := vclock.NewVirtual(0)
	net := simnet.New(clock, simnet.Config{LinkBps: 1e6, Latency: 100 * time.Microsecond})
	var bodyErr error
	if err := clock.Run(func() {
		cl, err := cluster.StartSim(net, clock, cfg)
		if err != nil {
			bodyErr = err
			return
		}
		defer cl.Close()
		bodyErr = body(clock, net, cl)
	}); err != nil {
		t.Fatalf("simulation: %v", err)
	}
	if bodyErr != nil {
		t.Fatal(bodyErr)
	}
}

// TestHedgedReadRescuesSlowReplica injects a 20x slower provider and
// compares a full read of a replicated blob with hedging off and on.
// Hedging is adaptive: each reader first reads the blob three times at
// full speed, which gives every provider the latency samples a hedge
// delay is estimated from. The hedged read must then race past the slow
// copy: much faster end to end, with at least one hedge fired and won,
// and identical bytes.
func TestHedgedReadRescuesSlowReplica(t *testing.T) {
	cfg := cluster.Config{
		DataProviders:   4,
		MetaProviders:   4,
		PageReplication: 2,
		HeartbeatEvery:  time.Hour,
	}
	runSimCluster(t, cfg, func(clock *vclock.Virtual, net *simnet.Net, cl *cluster.Cluster) error {
		ctx := ctxb()
		w, err := cl.NewClient("writer")
		if err != nil {
			return err
		}
		const ps, pages = 4096, 16
		id, err := w.Create(ctx, ps)
		if err != nil {
			return err
		}
		data := pattern(9, ps*pages)
		v, err := w.Append(ctx, id, data)
		if err != nil {
			return err
		}
		if err := w.Sync(ctx, id, v); err != nil {
			return err
		}

		read := func(tun client.ReadTuning) (time.Duration, client.PageCacheStats, error) {
			c, err := cl.NewClientCfg("reader", func(cc *client.Config) { cc.Read = tun })
			if err != nil {
				return 0, client.PageCacheStats{}, err
			}
			defer c.Close()
			buf := make([]byte, len(data))
			for range 3 {
				if err := c.Read(ctx, id, v, buf, 0); err != nil {
					return 0, client.PageCacheStats{}, err
				}
			}
			warm := readStats(c)
			net.SetNodeBandwidth("node0", 1e6/20, 1e6/20)
			defer net.SetNodeBandwidth("node0", 1e6, 1e6)
			start := clock.Now()
			if err := c.Read(ctx, id, v, buf, 0); err != nil {
				return 0, client.PageCacheStats{}, err
			}
			if !bytes.Equal(buf, data) {
				return 0, client.PageCacheStats{}, fmt.Errorf("read mismatch")
			}
			s := readStats(c)
			return clock.Now() - start, client.PageCacheStats{HedgesFired: s.HedgesFired - warm.HedgesFired,
				HedgesWon: s.HedgesWon - warm.HedgesWon, FetchRPCs: s.FetchRPCs - warm.FetchRPCs}, nil
		}

		unhedged, _, err := read(readTuningOff())
		if err != nil {
			return fmt.Errorf("unhedged: %w", err)
		}
		hedgedElapsed, stats, err := read(client.ReadTuning{PageCacheBytes: -1, NoCoalesce: true})
		if err != nil {
			return fmt.Errorf("hedged: %w", err)
		}
		if stats.HedgesFired == 0 || stats.HedgesWon == 0 {
			return fmt.Errorf("hedges fired/won = %d/%d, want both > 0",
				stats.HedgesFired, stats.HedgesWon)
		}
		// 2.28x here (108.7ms against 248.4ms: 2 hedges fired and won, 18
		// fetch RPCs for 16 pages); the bar is 2x. Only the pages whose
		// first choice is the slow node wait, for the hedge delay — twice
		// the best p99 the warm-up saw — before another replica serves
		// them. A fixed 10ms delay, the knob this replaced, gave 2.25x.
		if hedgedElapsed*2 >= unhedged {
			return fmt.Errorf("hedged read %v not at least 2x faster than unhedged %v",
				hedgedElapsed, unhedged)
		}
		// Bounded cost: at most one hedge per page on top of one fetch
		// per page.
		if stats.FetchRPCs > 2*pages {
			return fmt.Errorf("hedged read used %d RPCs for %d pages", stats.FetchRPCs, pages)
		}
		return nil
	})
}

// TestHedgedReadSurvivesDeadReplica kills one provider outright: with
// hedging enabled, error failover must still try every replica and the
// read must succeed with correct bytes.
func TestHedgedReadSurvivesDeadReplica(t *testing.T) {
	cfg := cluster.Config{
		DataProviders:   3,
		MetaProviders:   3,
		PageReplication: 2,
		HeartbeatEvery:  time.Hour,
	}
	runSimCluster(t, cfg, func(clock *vclock.Virtual, net *simnet.Net, cl *cluster.Cluster) error {
		ctx := ctxb()
		w, err := cl.NewClient("writer")
		if err != nil {
			return err
		}
		const ps, pages = 1024, 12
		id, err := w.Create(ctx, ps)
		if err != nil {
			return err
		}
		data := pattern(5, ps*pages)
		v, err := w.Append(ctx, id, data)
		if err != nil {
			return err
		}
		if err := w.Sync(ctx, id, v); err != nil {
			return err
		}

		cl.Providers[0].Close()
		c, err := cl.NewClient("reader")
		if err != nil {
			return err
		}
		buf := make([]byte, len(data))
		if err := c.Read(ctx, id, v, buf, 0); err != nil {
			return fmt.Errorf("read with dead replica: %w", err)
		}
		if !bytes.Equal(buf, data) {
			return fmt.Errorf("read mismatch after failover")
		}
		return nil
	})
}

// gatedStore wraps a pagestore and blocks page Gets while the gate is
// armed, counting how many reach the store. It turns the single-flight
// window into a barrier: every concurrent reader must join the one
// in-flight fetch before it is allowed to finish.
type gatedStore struct {
	pagestore.Store
	armed atomic.Bool
	gets  atomic.Int64
	gate  chan struct{}
}

func (g *gatedStore) Get(id wire.PageID, off, length uint32) ([]byte, error) {
	if g.armed.Load() {
		g.gets.Add(1)
		<-g.gate
	}
	return g.Store.Get(id, off, length)
}

// TestSingleFlightDedup runs many concurrent readers of the same page
// against a store whose Get blocks until every other reader has joined
// the flight. Exactly one fetch may reach the store; everyone gets the
// right bytes. Run under -race this also exercises the cache and flight
// bookkeeping for data races.
func TestSingleFlightDedup(t *testing.T) {
	gs := &gatedStore{Store: pagestore.NewMem(), gate: make(chan struct{})}
	net := transport.NewInproc()
	cl, err := cluster.StartInproc(net, vclock.NewReal(), cluster.Config{
		DataProviders: 1,
		MetaProviders: 1,
		NewStore:      func(int) pagestore.Store { return gs },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cl.Close()
		net.Close()
	})
	c, err := cl.NewClient("")
	if err != nil {
		t.Fatal(err)
	}

	const ps = 512
	id, err := c.Create(ctxb(), ps)
	if err != nil {
		t.Fatal(err)
	}
	data := pattern(3, ps)
	v, err := c.Append(ctxb(), id, data)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Sync(ctxb(), id, v); err != nil {
		t.Fatal(err)
	}

	const readers = 32
	gs.armed.Store(true)
	// Release the gate only once every non-leader reader has joined the
	// in-flight fetch, so no reader can sneak in after the fill either.
	// The gate stays armed (Gets keep counting); closing it only stops
	// the blocking — disarming here instead would race with the leader's
	// own Get, which may reach the store after the last waiter joins.
	go func() {
		for {
			if readStats(c).Shares >= readers-1 {
				close(gs.gate)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	var wg sync.WaitGroup
	errs := make([]error, readers)
	for i := 0; i < readers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, ps)
			if err := c.Read(ctxb(), id, v, buf, 0); err != nil {
				errs[i] = err
				return
			}
			if !bytes.Equal(buf, data) {
				errs[i] = fmt.Errorf("reader %d: bytes mismatch", i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := gs.gets.Load(); got != 1 {
		t.Fatalf("store served %d gets, want exactly 1", got)
	}
	stats := readStats(c)
	if stats.Misses != 1 || stats.Shares != readers-1 {
		t.Fatalf("misses/shares = %d/%d, want 1/%d", stats.Misses, stats.Shares, readers-1)
	}
}

// faultStore wraps a pagestore and fails every page Get while armed.
type faultStore struct {
	pagestore.Store
	failing atomic.Bool
}

func (f *faultStore) Get(id wire.PageID, off, length uint32) ([]byte, error) {
	if f.failing.Load() {
		return nil, fmt.Errorf("injected provider fault")
	}
	return f.Store.Get(id, off, length)
}

// TestFailedReadLeavesNoFlights fails a multi-page read on its first
// batch and checks that every single-flight the read registered was
// resolved, then that the same pages are still readable once the fault
// clears. A read used to register a flight for every page up front but
// resolve only the batches it dispatched; the batches skipped after the
// first error leaked their flights, and every later reader of those
// pages joined a flight nobody would ever complete and hung forever.
func TestFailedReadLeavesNoFlights(t *testing.T) {
	fs := &faultStore{Store: pagestore.NewMem()}
	net := transport.NewInproc()
	cl, err := cluster.StartInproc(net, vclock.NewReal(), cluster.Config{
		DataProviders: 1,
		MetaProviders: 1,
		NewStore:      func(int) pagestore.Store { return fs },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cl.Close()
		net.Close()
	})
	// With coalescing off every page is a batch of its own, and a read
	// keeps at most 64 of them in flight: once those fail, the other 64
	// pages' batches are never dispatched — the exact shape that used to
	// leak.
	c, err := cl.NewClientCfg("", func(cc *client.Config) {
		cc.Read = client.ReadTuning{NoHedge: true, NoCoalesce: true}
	})
	if err != nil {
		t.Fatal(err)
	}

	const ps, pages = 512, 128
	id, err := c.Create(ctxb(), ps)
	if err != nil {
		t.Fatal(err)
	}
	data := pattern(4, ps*pages)
	v, err := c.Append(ctxb(), id, data)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Sync(ctxb(), id, v); err != nil {
		t.Fatal(err)
	}

	fs.failing.Store(true)
	buf := make([]byte, len(data))
	if err := c.Read(ctxb(), id, v, buf, 0); err == nil {
		t.Fatal("read against a failing store unexpectedly succeeded")
	}
	if n := c.PageFlights(); n != 0 {
		t.Fatalf("failed read left %d unresolved flights", n)
	}
	// Nor a reference: every resident entry holds the cache's alone.
	if err := c.CheckPageRefs(client.PageEntries{}); err != nil {
		t.Fatalf("after the failed read: %v", err)
	}

	// The pages the failed read touched must still be readable; the
	// timeout bounds the hang a leaked flight would cause.
	fs.failing.Store(false)
	ctx, cancel := context.WithTimeout(ctxb(), 30*time.Second)
	defer cancel()
	if err := c.Read(ctx, id, v, buf, 0); err != nil {
		t.Fatalf("read after recovery: %v", err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatal("bytes mismatch after recovery")
	}
	if err := c.CheckPageRefs(client.PageEntries{}); err != nil {
		t.Fatalf("after recovery: %v", err)
	}
}

// TestPageCacheHotReread verifies the cache's invalidation-by-
// immutability model: an overwrite creates new pages under new ids, so
// cached pages of the old snapshot stay valid forever — re-reading
// either snapshot hot must cost zero fetches for unchanged pages and
// return each snapshot's own bytes.
func TestPageCacheHotReread(t *testing.T) {
	_, c := newCluster(t, cluster.Config{DataProviders: 2, MetaProviders: 2})
	const ps, pages = 512, 8
	id, err := c.Create(ctxb(), ps)
	if err != nil {
		t.Fatal(err)
	}
	dataV1 := pattern(1, ps*pages)
	v1, err := c.Append(ctxb(), id, dataV1)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Sync(ctxb(), id, v1); err != nil {
		t.Fatal(err)
	}

	readAll := func(v wire.Version, want []byte) {
		t.Helper()
		buf := make([]byte, len(want))
		if err := c.Read(ctxb(), id, v, buf, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, want) {
			t.Fatalf("snapshot %d bytes mismatch", v)
		}
	}
	readAll(v1, dataV1) // cold: fills the cache with whole pages
	afterCold := readStats(c)
	if afterCold.PagesFetched != pages {
		t.Fatalf("cold read fetched %d pages, want %d", afterCold.PagesFetched, pages)
	}

	// Overwrite two pages; v2 shares the rest with v1 under new ids only
	// for the rewritten range.
	patch := pattern(2, 2*ps)
	v2, err := c.Write(ctxb(), id, patch, 3*ps)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Sync(ctxb(), id, v2); err != nil {
		t.Fatal(err)
	}
	dataV2 := append(append(append([]byte(nil), dataV1[:3*ps]...), patch...), dataV1[5*ps:]...)

	readAll(v1, dataV1) // hot: must be pure cache hits
	afterHot := readStats(c)
	if afterHot.PagesFetched != afterCold.PagesFetched {
		t.Fatalf("hot re-read fetched %d new pages, want 0",
			afterHot.PagesFetched-afterCold.PagesFetched)
	}
	if afterHot.Hits < afterCold.Hits+pages {
		t.Fatalf("hot re-read hits %d, want >= %d", afterHot.Hits, afterCold.Hits+pages)
	}

	readAll(v2, dataV2) // only the two rewritten pages are new
	afterV2 := readStats(c)
	if got := afterV2.PagesFetched - afterHot.PagesFetched; got != 2 {
		t.Fatalf("v2 read fetched %d pages, want exactly the 2 rewritten", got)
	}
}

// TestCoalescedReadBoundaries reads assorted ranges — unaligned ends,
// single bytes straddling page boundaries, the full blob, a short tail
// page — through a coalescing, cache-less client over a replicated blob
// and checks every byte, plus that batches form per replica set and stop
// at the coalescing width.
func TestCoalescedReadBoundaries(t *testing.T) {
	_, c0 := newCluster(t, cluster.Config{
		DataProviders:   3,
		MetaProviders:   3,
		PageReplication: 2,
		ClientRead: client.ReadTuning{
			PageCacheBytes: -1, // force every read to the providers
			NoHedge:        true,
		},
	})
	// Placement is round-robin, so with 3 providers and 2 copies page i
	// lands on replica set i mod 3: 50 pages split 17/17/16, and each set
	// holds more pages than one batch may carry.
	const ps, pages = 256, 50
	const size = (pages-1)*ps + 40 // short tail
	const tail = (pages - 1) * ps
	id, err := c0.Create(ctxb(), ps)
	if err != nil {
		t.Fatal(err)
	}
	data := pattern(6, size)
	v, err := c0.Append(ctxb(), id, data)
	if err != nil {
		t.Fatal(err)
	}
	if err := c0.Sync(ctxb(), id, v); err != nil {
		t.Fatal(err)
	}

	ranges := []struct{ off, n uint64 }{
		{0, size},            // full blob, coalesced scan
		{0, 1},               // first byte
		{ps - 1, 2},          // straddles the first page boundary
		{100, 3000},          // unaligned both ends, many pages
		{tail, 40},           // exactly the short tail page
		{tail - 7, 47},       // tail crossing into the short page
		{5*ps + 1, 2*ps - 2}, // interior, unaligned both ends
		{size - 1, 1},        // last byte
	}
	for i, r := range ranges {
		buf := make([]byte, r.n)
		if err := c0.Read(ctxb(), id, v, buf, r.off); err != nil {
			t.Fatalf("read [%d,+%d): %v", r.off, r.n, err)
		}
		if !bytes.Equal(buf, data[r.off:r.off+r.n]) {
			t.Fatalf("read [%d,+%d): bytes mismatch", r.off, r.n)
		}
		if i == 0 {
			// The full scan: each replica set's first 16 pages go as one
			// batch, and the two sets holding 17 send their last page alone
			// (a one-page batch is not counted as coalesced).
			s := readStats(c0)
			if s.CoalescedRPCs != 3 || s.CoalescedPages != 48 {
				t.Fatalf("full scan coalesced %d pages over %d batches, want 48 over 3",
					s.CoalescedPages, s.CoalescedRPCs)
			}
		}
	}
	stats := readStats(c0)
	if stats.CoalescedPages <= stats.CoalescedRPCs {
		t.Fatalf("coalesced %d pages over %d batches: batches not multi-page",
			stats.CoalescedPages, stats.CoalescedRPCs)
	}
}
