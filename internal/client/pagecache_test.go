package client_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"blobseer/internal/client"
	"blobseer/internal/cluster"
	"blobseer/internal/pagestore"
	"blobseer/internal/transport"
	"blobseer/internal/vclock"
	"blobseer/internal/wire"
)

// The tests in this file prove the page cache's ownership rule under
// poison (export_test.go): an evicted page goes back to the buffer pool
// only once no reader is copying out of it, and a buffer recycled too
// early reads as 0xDB garbage every time.

// randomBytes returns n seeded pseudo-random bytes. Unlike pattern, no
// two pages of a blob are alike, so a page served for another is caught.
func randomBytes(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// waitFor polls cond until it holds, failing the test after a while.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestEvictionRacesCopyOut reads a blob 32 times the size of a cache
// that holds two pages, from 12 goroutines at once: half their reads hit
// four shared pages, half pages of their own, at unaligned offsets. Every
// insert evicts, so pages are evicted while other readers copy out of
// them. Every byte is checked, and afterwards every entry observed along
// the way is accounted for, and every page fetched and not resident was
// recycled exactly once.
func TestEvictionRacesCopyOut(t *testing.T) {
	const ps, pages = 4096, 64
	_, c := newCluster(t, cluster.Config{
		DataProviders: 2,
		MetaProviders: 2,
		// Two pages: each costs its pooled buffer plus 64 bytes.
		ClientRead: client.ReadTuning{PageCacheBytes: 2 * (ps + 64)},
	})
	id, err := c.Create(ctxb(), ps)
	if err != nil {
		t.Fatal(err)
	}
	data := randomBytes(1, ps*pages)
	v, err := c.Append(ctxb(), id, data)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Sync(ctxb(), id, v); err != nil {
		t.Fatal(err)
	}

	seen := client.PageEntries{}
	recycled0 := client.PagesRecycled()
	stop := make(chan struct{})
	observed := make(chan struct{})
	go func() {
		defer close(observed)
		for {
			select {
			case <-stop:
				return
			default:
			}
			c.Observe(seen)
			time.Sleep(50 * time.Microsecond)
		}
	}()

	const readers, rounds = 12, 40
	var wg sync.WaitGroup
	errs := make([]error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for i := 0; i < rounds; i++ {
				first := rng.Intn(4) // shared
				if i%2 == 1 {
					first = 4 + 4*r + rng.Intn(4) // this reader's own
				}
				off := first*ps + rng.Intn(ps)
				n := min(1+rng.Intn(2*ps), len(data)-off)
				buf := make([]byte, n)
				if err := c.Read(ctxb(), id, v, buf, uint64(off)); err != nil {
					errs[r] = err
					return
				}
				if !bytes.Equal(buf, data[off:off+n]) {
					errs[r] = fmt.Errorf("reader %d round %d: [%d,+%d) mismatch", r, i, off, n)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-observed
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if n := c.PageFlights(); n != 0 {
		t.Fatalf("%d unresolved flights", n)
	}
	if err := c.CheckPageRefs(seen); err != nil {
		t.Fatal(err)
	}
	if len(seen) < 3 {
		t.Fatalf("observed %d entries; the check saw no eviction", len(seen))
	}
	checkRecycled(t, c, recycled0)
}

// checkRecycled checks that every page c fetched and no longer holds
// went back to the pool exactly once: fetched − resident == recycled
// since recycled0 (a PagesRecycled reading taken before the reads). A
// last reference dropped without a recycle leaves the count short.
func checkRecycled(t *testing.T, c *client.Client, recycled0 int64) {
	t.Helper()
	prob, prot := c.PageSegments()
	fetched := int64(readStats(c).PagesFetched)
	if got := client.PagesRecycled() - recycled0; fetched-int64(prob+prot) != got {
		t.Fatalf("fetched %d pages, %d resident, recycled %d; want fetched − resident == recycled",
			fetched, prob+prot, got)
	}
}

// The tests below pin the cache's replacement policy on a blob of 1 KiB
// pages. A page costs the cache its pooled buffer plus 64 bytes: at
// least policyCost, and up to policySlack more when the pool hands back
// a buffer that grew past its class (an rpc frame whose size was not
// known up front is filed under the class below its capacity).
const policyPS, policyCost, policySlack = 1024, 1024 + 64, 1024 - 1

// policyClient writes a blob of the given number of 1 KiB pages and
// returns a client whose page cache has a budget of budget bytes, and a
// read of pages [first, first+n) that checks the bytes and the cache's
// accounting — references, segments, budget — after every call.
func policyClient(t *testing.T, pages int, budget int64) (*client.Client, func(first, n int)) {
	t.Helper()
	_, c := newCluster(t, cluster.Config{
		DataProviders: 2,
		MetaProviders: 2,
		ClientRead:    client.ReadTuning{PageCacheBytes: budget},
	})
	id, err := c.Create(ctxb(), policyPS)
	if err != nil {
		t.Fatal(err)
	}
	data := randomBytes(4, pages*policyPS)
	v, err := c.Append(ctxb(), id, data)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Sync(ctxb(), id, v); err != nil {
		t.Fatal(err)
	}
	seen := client.PageEntries{}
	return c, func(first, n int) {
		t.Helper()
		buf := make([]byte, n*policyPS)
		off := first * policyPS
		if err := c.Read(ctxb(), id, v, buf, uint64(off)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, data[off:off+len(buf)]) {
			t.Fatalf("pages [%d,+%d): bytes mismatch", first, n)
		}
		if err := c.CheckPageRefs(seen); err != nil {
			t.Fatalf("after pages [%d,+%d): %v", first, n, err)
		}
	}
}

// TestPageCacheScanResistance reads a hot set of 4 pages twice, then
// scans 4 times the cache's 32-page budget of other pages once, then
// re-reads the hot set: every re-read must hit. The second read promoted
// the hot set to protected, and the scan only ever cycles through
// probation's quarter of the budget. A plain LRU of the same budget —
// this cache before it was segmented — misses every re-read: the scan
// flushed the hot set.
func TestPageCacheScanResistance(t *testing.T) {
	const budget, hot, scan = 32, 4, 4 * 32
	c, read := policyClient(t, hot+scan, budget*policyCost)
	recycled0 := client.PagesRecycled()
	read(0, hot)
	read(0, hot)
	for p := hot; p < hot+scan; p += 4 {
		read(p, 4)
	}
	if prob, prot := c.PageSegments(); prot != hot || prob > budget/4 {
		t.Fatalf("after the scan: probation %d, protected %d pages; want <= %d, %d", prob, prot, budget/4, hot)
	}
	before := readStats(c)
	read(0, hot)
	after := readStats(c)
	if fetched := after.PagesFetched - before.PagesFetched; fetched != 0 || after.Hits-before.Hits != hot {
		t.Fatalf("hot re-read: %d hits, %d pages fetched; want %d, 0", after.Hits-before.Hits, fetched, hot)
	}
	checkRecycled(t, c, recycled0)
}

// TestPageCacheScanUsesAQuarter scans 4 times the budget of pages,
// each read once: what stays resident fits probation's quarter of the
// budget, and every other page fetched went back to the pool.
func TestPageCacheScanUsesAQuarter(t *testing.T) {
	const budget, scan = 32, 4 * 32
	c, read := policyClient(t, scan, budget*policyCost)
	recycled0 := client.PagesRecycled()
	for p := 0; p < scan; p += 4 {
		read(p, 4)
	}
	if prob, prot := c.PageSegments(); prot != 0 || prob > budget/4 {
		t.Fatalf("after a scan: probation %d, protected %d pages; want <= %d, 0", prob, prot, budget/4)
	}
	checkRecycled(t, c, recycled0)
}

// TestPageCacheHitPromotes reads a page once, then again: the first read
// leaves it in probation, the hit moves it to protected.
func TestPageCacheHitPromotes(t *testing.T) {
	c, read := policyClient(t, 4, 32*policyCost)
	read(2, 1)
	if prob, prot := c.PageSegments(); prob != 1 || prot != 0 {
		t.Fatalf("after one read: probation %d, protected %d; want 1, 0", prob, prot)
	}
	read(2, 1)
	if prob, prot := c.PageSegments(); prob != 0 || prot != 1 {
		t.Fatalf("after a hit: probation %d, protected %d; want 0, 1", prob, prot)
	}
}

// TestPageCacheProtectedOverflowDemotes promotes pages, each read twice,
// until protected — three quarters of a 32-page budget — overflows. The
// promotion that overflows it demotes protected's tail to probation
// instead of evicting it: every promoted page stays resident, nothing is
// recycled, and re-reading all of them fetches nothing.
func TestPageCacheProtectedOverflowDemotes(t *testing.T) {
	const budget, pages = 32, 32
	c, read := policyClient(t, pages, budget*policyCost)
	recycled0 := client.PagesRecycled()
	promoted := 0
	for {
		if promoted == pages {
			t.Fatalf("%d promotions never overflowed protected", pages)
		}
		read(promoted, 1)
		read(promoted, 1)
		promoted++
		if prob, _ := c.PageSegments(); prob > 0 {
			break
		}
	}
	if prob, prot := c.PageSegments(); prob+prot != promoted {
		t.Fatalf("after %d promotions: probation %d, protected %d; want all resident", promoted, prob, prot)
	}
	if n := client.PagesRecycled() - recycled0; n != 0 {
		t.Fatalf("protected overflow recycled %d pages, want 0", n)
	}
	before := readStats(c)
	for p := 0; p < promoted; p++ {
		read(p, 1)
	}
	if fetched := readStats(c).PagesFetched - before.PagesFetched; fetched != 0 {
		t.Fatalf("re-reading every promoted page fetched %d", fetched)
	}
}

// TestTinyPageCachesStillHit runs 1- and 2-page caches, where one page
// is more than probation's quarter: a page alone in probation is never
// evicted by its own insert, so an immediate re-read always hits.
func TestTinyPageCachesStillHit(t *testing.T) {
	for _, pages := range []int64{1, 2} {
		t.Run(fmt.Sprintf("%d-page", pages), func(t *testing.T) {
			c, read := policyClient(t, 6, pages*policyCost+policySlack)
			for p := 0; p < 6; p++ {
				read(p, 1)
				before := readStats(c)
				read(p, 1)
				if after := readStats(c); after.Hits != before.Hits+1 || after.PagesFetched != before.PagesFetched {
					t.Fatalf("re-read of page %d: %d hits, %d fetched; want 1, 0",
						p, after.Hits-before.Hits, after.PagesFetched-before.PagesFetched)
				}
			}
		})
	}
}

// pageGates wraps a page store and blocks every Get of a gated page
// until its gate opens. A page is named by its index in the blob, which
// Put learns by matching the bytes it stores against the blob's pages.
type pageGates struct {
	pagestore.Store
	pages [][]byte

	mu    sync.Mutex
	index map[wire.PageID]int
	gates map[int]chan struct{}
	gets  map[int]int
}

func (g *pageGates) Put(id wire.PageID, data []byte) error {
	for i, p := range g.pages {
		if bytes.Equal(p, data) {
			g.mu.Lock()
			g.index[id] = i
			g.mu.Unlock()
		}
	}
	return g.Store.Put(id, data)
}

func (g *pageGates) Get(id wire.PageID, off, length uint32) ([]byte, error) {
	g.mu.Lock()
	i := g.index[id]
	g.gets[i]++
	gate := g.gates[i]
	g.mu.Unlock()
	if gate != nil {
		<-gate
	}
	return g.Store.Get(id, off, length)
}

func (g *pageGates) getsOf(i int) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.gets[i]
}

// TestSingleFlightWaitersOutliveEviction has N readers join the flights
// of pages 0 and 1, both held at the store. Page 1's flight completes
// first: its leader copies out and returns, and the waiters, still
// blocked on page 0, keep their references to page 1 while a read of
// page 2 evicts it from a cache that holds one page. Only then does page
// 0 arrive and the waiters copy out of both. Page 1's buffer must
// survive its eviction until the last waiter has copied it, and then go
// back to the pool.
func TestSingleFlightWaitersOutliveEviction(t *testing.T) {
	const ps, waiters = 512, 16
	data := randomBytes(2, 3*ps)
	gs := &pageGates{
		Store: memStore(t),
		pages: [][]byte{data[:ps], data[ps : 2*ps], data[2*ps:]},
		index: make(map[wire.PageID]int),
		gates: make(map[int]chan struct{}),
		gets:  make(map[int]int),
	}
	net := transport.NewInproc()
	cl, err := cluster.StartInproc(net, vclock.NewReal(), cluster.Config{
		DataProviders: 1,
		MetaProviders: 1,
		NewStore:      func(int) pagestore.Store { return gs },
		// One 512-byte page: a 1 KiB pooled buffer plus 64 bytes.
		ClientRead: client.ReadTuning{PageCacheBytes: 1024 + 64},
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
	id, err := c.Create(ctxb(), ps)
	if err != nil {
		t.Fatal(err)
	}
	v, err := c.Append(ctxb(), id, data)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Sync(ctxb(), id, v); err != nil {
		t.Fatal(err)
	}

	read := func(off, n int) error {
		buf := make([]byte, n)
		if err := c.Read(ctxb(), id, v, buf, uint64(off)); err != nil {
			return err
		}
		if !bytes.Equal(buf, data[off:off+n]) {
			return fmt.Errorf("read [%d,+%d): bytes mismatch", off, n)
		}
		return nil
	}
	var wg sync.WaitGroup
	errs := make(chan error, waiters+2)
	spawn := func(off, n int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := read(off, n); err != nil {
				errs <- err
			}
		}()
	}

	gate0, gate1 := make(chan struct{}), make(chan struct{})
	gs.mu.Lock()
	gs.gates[0], gs.gates[1] = gate0, gate1
	gs.mu.Unlock()
	lead1 := make(chan error, 1)
	go func() { lead1 <- read(ps, ps) }()
	waitFor(t, "page 1's leader at the store", func() bool { return gs.getsOf(1) == 1 })
	spawn(0, ps)
	waitFor(t, "page 0's leader at the store", func() bool { return gs.getsOf(0) == 1 })
	for i := 0; i < waiters; i++ {
		spawn(0, 2*ps) // joins page 0's flight, then page 1's
	}
	waitFor(t, "every waiter to join both flights", func() bool {
		return readStats(c).Shares == 2*waiters
	})

	close(gate1)
	if err := <-lead1; err != nil {
		t.Fatal(err)
	}
	seen := client.PageEntries{}
	c.Observe(seen) // page 1, resident, its waiters' references outstanding
	if len(seen) != 1 {
		t.Fatalf("%d resident entries after page 1's flight, want 1", len(seen))
	}
	if err := read(2*ps, ps); err != nil { // evicts page 1
		t.Fatal(err)
	}
	c.Observe(seen)
	close(gate0)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if got := gs.getsOf(i); got != 1 {
			t.Fatalf("page %d: store served %d gets, want 1", i, got)
		}
	}
	if n := c.PageFlights(); n != 0 {
		t.Fatalf("%d unresolved flights", n)
	}
	if err := c.CheckPageRefs(seen); err != nil {
		t.Fatal(err)
	}
}
