package client_test

import (
	"bytes"
	"context"
	"math/rand"
	"sync"
	"testing"

	"blobseer/internal/client"
	"blobseer/internal/cluster"
	"blobseer/internal/obs"
	"blobseer/internal/transport"
	"blobseer/internal/vclock"
	"blobseer/internal/wire"
)

// newCluster stands up an in-process cluster and returns a client on it.
func newCluster(t *testing.T, cfg cluster.Config) (*cluster.Cluster, *client.Client) {
	t.Helper()
	net := transport.NewInproc()
	sched := vclock.NewReal()
	cl, err := cluster.StartInproc(net, sched, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cl.NewClient("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cl.Close()
		net.Close()
	})
	return cl, c
}

func ctxb() context.Context { return context.Background() }

// readStats reads c's read-path series into one struct, for the tests
// that compare several of them.
func readStats(c *client.Client) client.PageCacheStats {
	v := func(name string) uint64 { return uint64(obs.Value(c, "client_"+name+"_total")) }
	return client.PageCacheStats{
		Hits: v("page_cache_hits"), Misses: v("page_cache_misses"), Shares: v("single_flight_shares"),
		HedgesFired: v("hedges_fired"), HedgesWon: v("hedges_won"),
		CoalescedRPCs: v("coalesced_rpcs"), CoalescedPages: v("coalesced_pages"),
		FetchRPCs: v("fetch_rpcs"), PagesFetched: v("pages_fetched"),
	}
}

// pattern fills a buffer with a deterministic byte pattern seeded by tag.
func pattern(tag byte, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = tag ^ byte(i*7)
	}
	return out
}

func TestCreateAppendRead(t *testing.T) {
	_, c := newCluster(t, cluster.Config{})
	id, err := c.Create(ctxb(), 256)
	if err != nil {
		t.Fatal(err)
	}
	data := pattern(1, 1024) // 4 pages
	v, err := c.Append(ctxb(), id, data)
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 {
		t.Fatalf("version = %d", v)
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
	// Sub-range, page-straddling read.
	sub := make([]byte, 300)
	if err := c.Read(ctxb(), id, v, sub, 200); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sub, data[200:500]) {
		t.Fatal("sub-range read mismatch")
	}
}

func TestVersioningKeepsOldSnapshots(t *testing.T) {
	_, c := newCluster(t, cluster.Config{})
	id, _ := c.Create(ctxb(), 128)
	v1, err := c.Append(ctxb(), id, pattern(1, 512))
	if err != nil {
		t.Fatal(err)
	}
	v2, err := c.Write(ctxb(), id, pattern(2, 128), 128) // overwrite page 1
	if err != nil {
		t.Fatal(err)
	}
	c.Sync(ctxb(), id, v2)

	old := make([]byte, 512)
	if err := c.Read(ctxb(), id, v1, old, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(old, pattern(1, 512)) {
		t.Fatal("snapshot 1 changed after overwrite")
	}
	cur := make([]byte, 512)
	if err := c.Read(ctxb(), id, v2, cur, 0); err != nil {
		t.Fatal(err)
	}
	want := pattern(1, 512)
	copy(want[128:256], pattern(2, 128))
	if !bytes.Equal(cur, want) {
		t.Fatal("snapshot 2 content wrong")
	}
}

func TestUnalignedWriteMergesBoundaries(t *testing.T) {
	_, c := newCluster(t, cluster.Config{})
	id, _ := c.Create(ctxb(), 256)
	base := pattern(9, 1024)
	c.Append(ctxb(), id, base)
	// Write 100 bytes at offset 300: head merge in page 1, tail merge in
	// page 1 too (300..400 inside page [256,512)).
	v, err := c.Write(ctxb(), id, pattern(5, 100), 300)
	if err != nil {
		t.Fatal(err)
	}
	c.Sync(ctxb(), id, v)
	got := make([]byte, 1024)
	if err := c.Read(ctxb(), id, v, got, 0); err != nil {
		t.Fatal(err)
	}
	want := pattern(9, 1024)
	copy(want[300:400], pattern(5, 100))
	if !bytes.Equal(got, want) {
		t.Fatal("unaligned write corrupted neighbouring bytes")
	}
	if sz, _ := c.Size(ctxb(), id, v); sz != 1024 {
		t.Fatalf("size after interior write = %d", sz)
	}
}

func TestUnalignedWriteExtendsBlob(t *testing.T) {
	_, c := newCluster(t, cluster.Config{})
	id, _ := c.Create(ctxb(), 256)
	c.Append(ctxb(), id, pattern(1, 500)) // size 500: page 1 is short
	// Overwrite the tail and extend to 700 (unaligned on both sides).
	v, err := c.Write(ctxb(), id, pattern(2, 300), 400)
	if err != nil {
		t.Fatal(err)
	}
	c.Sync(ctxb(), id, v)
	if sz, _ := c.Size(ctxb(), id, v); sz != 700 {
		t.Fatalf("size = %d, want 700", sz)
	}
	got := make([]byte, 700)
	if err := c.Read(ctxb(), id, v, got, 0); err != nil {
		t.Fatal(err)
	}
	want := append(pattern(1, 500)[:400], pattern(2, 300)...)
	if !bytes.Equal(got, want) {
		t.Fatal("extended write content wrong")
	}
}

func TestUnalignedAppends(t *testing.T) {
	_, c := newCluster(t, cluster.Config{})
	id, _ := c.Create(ctxb(), 256)
	var want []byte
	var last wire.Version
	for i := 0; i < 7; i++ {
		chunk := pattern(byte(i+1), 100+37*i) // deliberately odd sizes
		v, err := c.Append(ctxb(), id, chunk)
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		want = append(want, chunk...)
		last = v
	}
	c.Sync(ctxb(), id, last)
	if sz, _ := c.Size(ctxb(), id, last); sz != uint64(len(want)) {
		t.Fatalf("size = %d, want %d", sz, len(want))
	}
	got := make([]byte, len(want))
	if err := c.Read(ctxb(), id, last, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("unaligned append stream corrupted")
	}
}

func TestReadValidation(t *testing.T) {
	_, c := newCluster(t, cluster.Config{})
	id, _ := c.Create(ctxb(), 256)
	v, _ := c.Append(ctxb(), id, pattern(1, 256))
	c.Sync(ctxb(), id, v)

	// Unpublished version.
	err := c.Read(ctxb(), id, 7, make([]byte, 10), 0)
	if !wire.IsNotPublished(err) {
		t.Fatalf("read of future version: %v", err)
	}
	// Beyond size.
	err = c.Read(ctxb(), id, v, make([]byte, 10), 250)
	if !wire.IsOutOfBounds(err) {
		t.Fatalf("read past end: %v", err)
	}
	// Zero-length read on a published version succeeds.
	if err := c.Read(ctxb(), id, v, nil, 0); err != nil {
		t.Fatal(err)
	}
	// Zero-length read still validates the version.
	if err := c.Read(ctxb(), id, 9, nil, 0); !wire.IsNotPublished(err) {
		t.Fatalf("empty read of future version: %v", err)
	}
	// Unknown blob.
	if err := c.Read(ctxb(), 999, v, make([]byte, 1), 0); !wire.IsNotFound(err) {
		t.Fatalf("read of unknown blob: %v", err)
	}
	// Empty update rejected.
	if _, err := c.Append(ctxb(), id, nil); wire.CodeOf(err) != wire.CodeBadRequest {
		t.Fatalf("empty append: %v", err)
	}
}

func TestWriteBeyondSizeFails(t *testing.T) {
	_, c := newCluster(t, cluster.Config{})
	id, _ := c.Create(ctxb(), 256)
	c.Append(ctxb(), id, pattern(1, 256))
	if _, err := c.Write(ctxb(), id, pattern(2, 10), 1000); !wire.IsOutOfBounds(err) {
		t.Fatalf("err = %v", err)
	}
}

func TestConcurrentAppenders(t *testing.T) {
	_, c := newCluster(t, cluster.Config{DataProviders: 8, MetaProviders: 8})
	id, _ := c.Create(ctxb(), 256)
	const workers = 8
	const perWorker = 5
	const chunk = 512 // page-aligned: the fully parallel path

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, err := c.Append(ctxb(), id, pattern(byte(w*16+i), chunk)); err != nil {
					t.Errorf("worker %d append %d: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	// All appends land: final published size is exact.
	v, size, err := c.Recent(ctxb(), id)
	if err != nil {
		t.Fatal(err)
	}
	if v != workers*perWorker || size != workers*perWorker*chunk {
		t.Fatalf("recent = v%d size %d", v, size)
	}
	// Every chunk boundary holds one worker's uniform pattern.
	got := make([]byte, size)
	if err := c.Read(ctxb(), id, v, got, 0); err != nil {
		t.Fatal(err)
	}
	for off := uint64(0); off < size; off += chunk {
		tag := got[off]
		if !bytes.Equal(got[off:off+chunk], pattern(tag, chunk)) {
			t.Fatalf("chunk at %d interleaved across appends", off)
		}
	}
}

func TestConcurrentDisjointWriters(t *testing.T) {
	_, c := newCluster(t, cluster.Config{DataProviders: 8, MetaProviders: 8})
	id, _ := c.Create(ctxb(), 256)
	const regions = 8
	const regionSize = 1024
	c.Append(ctxb(), id, make([]byte, regions*regionSize))

	var wg sync.WaitGroup
	for w := 0; w < regions; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if _, err := c.Write(ctxb(), id, pattern(byte(w+1), regionSize), uint64(w)*regionSize); err != nil {
				t.Errorf("writer %d: %v", w, err)
			}
		}(w)
	}
	wg.Wait()
	v, _, _ := c.Recent(ctxb(), id)
	if v != regions+1 {
		t.Fatalf("recent version = %d", v)
	}
	got := make([]byte, regions*regionSize)
	if err := c.Read(ctxb(), id, v, got, 0); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < regions; w++ {
		if !bytes.Equal(got[w*regionSize:(w+1)*regionSize], pattern(byte(w+1), regionSize)) {
			t.Fatalf("region %d lost its write", w)
		}
	}
}

// TestConcurrentWritersReadBackEveryVersion has writers on clients of
// their own overwrite seeded page runs of one blob without waiting for
// each other, so most updates weave their trees around borders still in
// flight, while the plans, node slabs, route lists, log records and
// request messages of the metadata path are recycled between them. Each
// writer reads its own run back at its version; then every version is
// read whole, by readers at once, and held byte for byte to the model
// built from the writes in version order. Metadata is replicated, so a
// write's batches go to two nodes and a lookup may fall back to a
// replica.
func TestConcurrentWritersReadBackEveryVersion(t *testing.T) {
	cl, c := newCluster(t, cluster.Config{DataProviders: 4, MetaProviders: 5, Replication: 2})
	const pageSize, blobPages = 256, 64
	const writers, perWriter = 4, 12
	id, err := c.Create(ctxb(), pageSize)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Append(ctxb(), id, pattern(0xA5, blobPages*pageSize)); err != nil {
		t.Fatal(err)
	}
	type write struct {
		off  uint64
		data []byte
	}
	var mu sync.Mutex
	writes := map[wire.Version]write{}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wc, err := cl.NewClient("")
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(w int, wc *client.Client) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			for i := 0; i < perWriter; i++ {
				pages := 1 + rng.Intn(4)
				off := uint64(rng.Intn(blobPages-pages+1)) * pageSize
				data := pattern(byte(w*perWriter+i+1), pages*pageSize)
				v, err := wc.Write(ctxb(), id, data, off)
				if err != nil {
					t.Errorf("writer %d write %d: %v", w, i, err)
					return
				}
				mu.Lock()
				writes[v] = write{off, data}
				mu.Unlock()
				if err := wc.Sync(ctxb(), id, v); err != nil {
					t.Errorf("writer %d sync v%d: %v", w, v, err)
					return
				}
				got := make([]byte, len(data))
				if err := wc.Read(ctxb(), id, v, got, off); err != nil {
					t.Errorf("writer %d read v%d: %v", w, v, err)
					return
				}
				if !bytes.Equal(got, data) {
					t.Errorf("writer %d: v%d reads back other bytes than it wrote at %d", w, v, off)
					return
				}
			}
		}(w, wc)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	last := wire.Version(1 + writers*perWriter)
	if v, _, err := c.Recent(ctxb(), id); err != nil || v != last {
		t.Fatalf("recent = v%d (%v), want v%d", v, err, last)
	}
	model := make([][]byte, last+1)
	model[1] = pattern(0xA5, blobPages*pageSize)
	for v := wire.Version(2); v <= last; v++ {
		wr, ok := writes[v]
		if !ok {
			t.Fatalf("no write was assigned v%d", v)
		}
		model[v] = bytes.Clone(model[v-1])
		copy(model[v][wr.off:], wr.data)
	}
	readers := make([]*client.Client, writers)
	for r := range readers {
		if readers[r], err = cl.NewClient(""); err != nil {
			t.Fatal(err)
		}
	}
	for r, rc := range readers {
		wg.Add(1)
		go func(r int, rc *client.Client) {
			defer wg.Done()
			got := make([]byte, blobPages*pageSize)
			for v := wire.Version(1 + r); v <= last; v += wire.Version(len(readers)) {
				if err := rc.Read(ctxb(), id, v, got, 0); err != nil {
					t.Errorf("reader %d v%d: %v", r, v, err)
					return
				}
				if !bytes.Equal(got, model[v]) {
					t.Errorf("reader %d: v%d differs from its model", r, v)
				}
			}
		}(r, rc)
	}
	wg.Wait()
}

func TestBranchEndToEnd(t *testing.T) {
	_, c := newCluster(t, cluster.Config{})
	id, _ := c.Create(ctxb(), 256)
	v1, _ := c.Append(ctxb(), id, pattern(1, 512))
	c.Sync(ctxb(), id, v1)

	bid, err := c.Branch(ctxb(), id, v1)
	if err != nil {
		t.Fatal(err)
	}
	// The branch reads the shared history without copying anything.
	got := make([]byte, 512)
	if err := c.Read(ctxb(), bid, v1, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pattern(1, 512)) {
		t.Fatal("branch cannot read shared history")
	}
	// Diverge: the branch overwrites page 0, the original appends.
	bv, err := c.Write(ctxb(), bid, pattern(7, 256), 0)
	if err != nil {
		t.Fatal(err)
	}
	ov, err := c.Append(ctxb(), id, pattern(8, 256))
	if err != nil {
		t.Fatal(err)
	}
	c.Sync(ctxb(), bid, bv)
	c.Sync(ctxb(), id, ov)

	// Branch sees its own write, not the original's append.
	if sz, _ := c.Size(ctxb(), bid, bv); sz != 512 {
		t.Fatalf("branch size = %d", sz)
	}
	bGot := make([]byte, 512)
	c.Read(ctxb(), bid, bv, bGot, 0)
	bWant := pattern(1, 512)
	copy(bWant[:256], pattern(7, 256))
	if !bytes.Equal(bGot, bWant) {
		t.Fatal("branch content wrong")
	}
	// Original is untouched by the branch's write.
	oGot := make([]byte, 768)
	c.Read(ctxb(), id, ov, oGot, 0)
	oWant := append(pattern(1, 512), pattern(8, 256)...)
	if !bytes.Equal(oGot, oWant) {
		t.Fatal("original affected by branch write")
	}
}

func TestBranchOfBranchReadsGrandparentData(t *testing.T) {
	_, c := newCluster(t, cluster.Config{})
	id, _ := c.Create(ctxb(), 256)
	v1, _ := c.Append(ctxb(), id, pattern(1, 256))
	c.Sync(ctxb(), id, v1)
	b1, _ := c.Branch(ctxb(), id, v1)
	v2, _ := c.Append(ctxb(), b1, pattern(2, 256))
	c.Sync(ctxb(), b1, v2)
	b2, _ := c.Branch(ctxb(), b1, v2)

	got := make([]byte, 512)
	if err := c.Read(ctxb(), b2, v2, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, append(pattern(1, 256), pattern(2, 256)...)) {
		t.Fatal("grandchild cannot assemble ancestor data")
	}
}

func TestRecentMonotonic(t *testing.T) {
	_, c := newCluster(t, cluster.Config{})
	id, _ := c.Create(ctxb(), 256)
	var prev wire.Version
	for i := 0; i < 10; i++ {
		v, err := c.Append(ctxb(), id, pattern(byte(i), 256))
		if err != nil {
			t.Fatal(err)
		}
		c.Sync(ctxb(), id, v)
		recent, _, err := c.Recent(ctxb(), id)
		if err != nil {
			t.Fatal(err)
		}
		if recent < prev {
			t.Fatalf("recent went backwards: %d -> %d", prev, recent)
		}
		prev = recent
	}
}

// TestFuzzAgainstReferenceModel drives random writes/appends/branches
// through the full stack and cross-checks every published snapshot
// against an in-memory model.
func TestFuzzAgainstReferenceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	_, c := newCluster(t, cluster.Config{DataProviders: 6, MetaProviders: 6})

	const ps = 64 // tiny pages so trees get deep
	type blobModel struct {
		id    wire.BlobID
		snaps map[wire.Version][]byte
		last  wire.Version
	}
	newModelBlob := func(id wire.BlobID, base map[wire.Version][]byte, at wire.Version) *blobModel {
		m := &blobModel{id: id, snaps: map[wire.Version][]byte{}, last: at}
		for v, content := range base {
			if v <= at {
				m.snaps[v] = content
			}
		}
		if _, ok := m.snaps[0]; !ok {
			m.snaps[0] = nil
		}
		return m
	}

	id, err := c.Create(ctxb(), ps)
	if err != nil {
		t.Fatal(err)
	}
	blobs := []*blobModel{newModelBlob(id, map[wire.Version][]byte{0: nil}, 0)}

	for step := 0; step < 120; step++ {
		b := blobs[rng.Intn(len(blobs))]
		cur := append([]byte(nil), b.snaps[b.last]...)
		switch op := rng.Intn(10); {
		case op < 4 || len(cur) == 0: // append
			chunk := pattern(byte(step), rng.Intn(3*ps)+1)
			v, err := c.Append(ctxb(), b.id, chunk)
			if err != nil {
				t.Fatalf("step %d append: %v", step, err)
			}
			cur = append(cur, chunk...)
			b.snaps[v] = cur
			b.last = v
		case op < 8: // write
			off := uint64(rng.Intn(len(cur) + 1))
			chunk := pattern(byte(step), rng.Intn(3*ps)+1)
			v, err := c.Write(ctxb(), b.id, chunk, off)
			if err != nil {
				t.Fatalf("step %d write(%d,+%d) on size %d: %v", step, off, len(chunk), len(cur), err)
			}
			if int(off)+len(chunk) > len(cur) {
				cur = append(cur[:off], chunk...)
			} else {
				copy(cur[off:], chunk)
			}
			b.snaps[v] = cur
			b.last = v
		default: // branch from a random published snapshot
			if len(blobs) >= 5 {
				continue
			}
			versions := make([]wire.Version, 0, len(b.snaps))
			for v := range b.snaps {
				versions = append(versions, v)
			}
			at := versions[rng.Intn(len(versions))]
			nb, err := c.Branch(ctxb(), b.id, at)
			if err != nil {
				t.Fatalf("step %d branch at v%d: %v", step, at, err)
			}
			blobs = append(blobs, newModelBlob(nb, b.snaps, at))
		}
	}

	// Verify every snapshot of every blob, including random sub-ranges.
	for _, b := range blobs {
		if err := c.Sync(ctxb(), b.id, b.last); err != nil {
			t.Fatalf("sync blob %v v%d: %v", b.id, b.last, err)
		}
		for v, want := range b.snaps {
			if sz, err := c.Size(ctxb(), b.id, v); err != nil || sz != uint64(len(want)) {
				t.Fatalf("blob %v v%d size = %d (%v), want %d", b.id, v, sz, err, len(want))
			}
			if len(want) == 0 {
				continue
			}
			got := make([]byte, len(want))
			if err := c.Read(ctxb(), b.id, v, got, 0); err != nil {
				t.Fatalf("blob %v v%d read: %v", b.id, v, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("blob %v v%d content mismatch", b.id, v)
			}
			for k := 0; k < 3; k++ {
				off := rng.Intn(len(want))
				n := rng.Intn(len(want)-off) + 1
				sub := make([]byte, n)
				if err := c.Read(ctxb(), b.id, v, sub, uint64(off)); err != nil {
					t.Fatalf("blob %v v%d sub-read: %v", b.id, v, err)
				}
				if !bytes.Equal(sub, want[off:off+n]) {
					t.Fatalf("blob %v v%d sub-range [%d,+%d) mismatch", b.id, v, off, n)
				}
			}
		}
	}
	// The page distribution strategy spread pages across providers.
}

func TestClientConfigValidation(t *testing.T) {
	if _, err := client.New(client.Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

// TestUnalignedAppendSkipsAbortedPredecessor pins two fixes found by
// driving a live cluster through dead-writer aborts:
//
//   - the version manager's abort size-rollback must anchor on the
//     readable version, not the publication pointer (which may rest on
//     an aborted version with no size entry) — otherwise the append
//     below is assigned offset 0 over live data;
//   - the unaligned-append merge must step past aborted predecessors to
//     the latest surviving snapshot instead of failing on them —
//     otherwise one abandoned update wedges every later unaligned
//     append (each fails, self-aborts, and poisons the next).
func TestUnalignedAppendSkipsAbortedPredecessor(t *testing.T) {
	_, c := newCluster(t, cluster.Config{})
	id, err := c.Create(ctxb(), 256)
	if err != nil {
		t.Fatal(err)
	}
	first := pattern(1, 600) // ends mid-page: every later append is unaligned
	if _, err := c.Append(ctxb(), id, first); err != nil {
		t.Fatal(err)
	}

	// Two waves of abandoned updates. After the first abort the
	// publication pointer rests on the aborted version; the second abort
	// finds no surviving in-flight update and exercises the rollback
	// fallback.
	for i := 0; i < 2; i++ {
		v, err := c.AssignOnly(ctxb(), id, 50)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.AbortVersion(ctxb(), id, v); err != nil {
			t.Fatal(err)
		}
	}

	second := pattern(2, 500)
	v, err := c.Append(ctxb(), id, second)
	if err != nil {
		t.Fatalf("unaligned append after aborted predecessors: %v", err)
	}
	if err := c.Sync(ctxb(), id, v); err != nil {
		t.Fatal(err)
	}
	sz, err := c.Size(ctxb(), id, v)
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(len(first) + len(second)); sz != want {
		t.Fatalf("size after append = %d, want %d", sz, want)
	}
	got := make([]byte, len(first)+len(second))
	if err := c.Read(ctxb(), id, v, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:len(first)], first) || !bytes.Equal(got[len(first):], second) {
		t.Fatal("read back mismatch after merging across aborted predecessors")
	}
}
