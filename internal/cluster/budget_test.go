package cluster

import (
	"context"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"blobseer/internal/client"
	"blobseer/internal/transport"
	"blobseer/internal/vclock"
)

// durableCluster starts the cluster both budgets are measured on: the
// in-process pipe transport with every store durable (fsync off) and no
// timer firing meanwhile.
func durableCluster(t *testing.T) *Cluster {
	t.Helper()
	dir := t.TempDir()
	net := transport.NewInproc()
	cl, err := StartInproc(net, vclock.NewReal(), Config{
		PageDir:        filepath.Join(dir, "pages"),
		MetaLogDir:     filepath.Join(dir, "meta"),
		VersionWALPath: filepath.Join(dir, "vm", "wal"),
		HeartbeatEvery: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cl.Close()
		net.Close()
	})
	return cl
}

// heapPerOp reports what n calls of op cost the whole process per call,
// in bytes and in allocations, with the collector held off: a cycle
// empties the buffer pools, and when one falls is not the code's doing.
func heapPerOp(n int, op func()) (bytes, allocs float64) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		op()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n), float64(after.Mallocs-before.Mallocs) / float64(n)
}

// TestControlPathAllocBudget pins what one small update and one small
// read cost the whole system in heap — client, version manager,
// provider manager, data providers and metadata nodes together, on the
// in-process pipe transport with every store durable (fsync off): the
// benchmark's small_rw shape, where the payload is one 4 KiB page and
// everything else is control path. A warm handle writes one aligned
// page into a 16 384-page blob and waits for it to publish (the weave:
// 15 tree nodes planned, resolved against 14 borders, stored); a second
// client asks for the recent version and reads one page of it (a
// 14-level descent, partly cached). The budgets are about 1.3 x what
// the code measured when they were set (20.8 KB in 383 allocations per
// write, 23.8 KB in 290 per read, repeating to a few bytes; before the
// weave travelled as one batch it was 44.9 KB in 778 and 26.7 KB in
// 385).
func TestControlPathAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop a quarter of what it is given")
	}
	const pageSize, blobPages = 4 << 10, 16384
	cl := durableCluster(t)
	writer, err := cl.NewClient("")
	if err != nil {
		t.Fatal(err)
	}
	reader, err := cl.NewClient("")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	id, err := writer.Create(ctx, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	chunk := make([]byte, 256*pageSize)
	for i := range chunk {
		chunk[i] = byte(i * 7)
	}
	for at := 0; at < blobPages*pageSize; at += len(chunk) {
		v, err := writer.Append(ctx, id, chunk)
		if err != nil {
			t.Fatal(err)
		}
		if err := writer.Sync(ctx, id, v); err != nil {
			t.Fatal(err)
		}
	}

	page := make([]byte, pageSize)
	// A fixed stride over the blob: every op lands on another page, as far
	// from the last as the tree allows the cache to matter.
	next := uint64(0)
	offset := func() uint64 {
		next = (next + 6151) % blobPages
		return next * pageSize
	}
	write := func() {
		v, err := writer.Write(ctx, id, chunk[:pageSize], offset())
		if err != nil {
			t.Fatal(err)
		}
		if err := writer.Sync(ctx, id, v); err != nil {
			t.Fatal(err)
		}
	}
	read := func() {
		v, _, err := reader.Recent(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if err := reader.Read(ctx, id, v, page, offset()); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name          string
		op            func()
		bytes, allocs float64
	}{
		{"1-page Write+Sync", write, 27e3, 500},
		{"Recent + 1-page Read", read, 31e3, 380},
	} {
		for i := 0; i < 100; i++ {
			write()
			read()
		}
		gotBytes, gotAllocs := heapPerOp(300, tc.op)
		t.Logf("%s: %.0f B and %.0f allocations per op", tc.name, gotBytes, gotAllocs)
		if gotBytes > tc.bytes || gotAllocs > tc.allocs {
			t.Errorf("%s costs %.0f B in %.0f allocations, budget %.0f B in %.0f",
				tc.name, gotBytes, gotAllocs, tc.bytes, tc.allocs)
		}
	}
}

// TestScanAllocBudget pins what a cold sequential read costs the whole
// system in heap: the benchmark's scan_cold shape, a 1 MiB read of 16
// 64 KiB pages none of which the client has seen, coalesced into one
// GET_PAGES per provider, by a reader with the default 32 MiB page
// cache. Pages read once stay in the cache's probation quarter, so the
// warm-up reads fill those 8 MiB and go past them; from then on every
// page a read inserts evicts one an earlier read fetched, and decodes
// into the buffer that eviction handed back to the pool. The providers
// read into recycled buffers and the frames are recycled on both sides,
// so what is left is the metadata descent and per-call fixed cost, and
// the budget is TestScanChurnAllocBudget's. The code measured 40-57 KB
// per read when the budget was set (the spread is how often a fetch
// finds a released buffer in the pool), and 1.04 MiB while the cache
// kept every page read once until its whole 32 MiB were full (2.04 MiB
// while the durable engine's Get still allocated every page it served).
func TestScanAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop a quarter of what it is given")
	}
	const pageSize, readSize, warm, measured = 64 << 10, 1 << 20, 10, 12
	cl := durableCluster(t)
	writer, err := cl.NewClient("")
	if err != nil {
		t.Fatal(err)
	}
	reader, err := cl.NewClient("")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	id, err := writer.Create(ctx, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	chunk := make([]byte, readSize)
	var v uint64
	for i := 0; i < warm+measured; i++ {
		for j := range chunk {
			chunk[j] = byte(i + j*7)
		}
		if v, err = writer.Append(ctx, id, chunk); err != nil {
			t.Fatal(err)
		}
	}
	if err := writer.Sync(ctx, id, v); err != nil {
		t.Fatal(err)
	}
	// Every read takes the next 1 MiB of the blob, so every page it
	// touches is cold; the first ones fill probation, the pools and the
	// connections.
	next := 0
	read := func() {
		if err := reader.Read(ctx, id, v, chunk, uint64(next)*readSize); err != nil {
			t.Fatal(err)
		}
		if chunk[0] != byte(next) || chunk[readSize-1] != byte(next+(readSize-1)*7) {
			t.Fatalf("read %d returned another chunk's bytes", next)
		}
		next++
	}
	for i := 0; i < warm; i++ {
		read()
	}
	gotBytes, _ := heapPerOp(measured, read)
	t.Logf("cold 1 MiB read: %.0f B (%.2f MiB) per op", gotBytes, gotBytes/(1<<20))
	if budget := 128.0 * 1024; gotBytes > budget {
		t.Errorf("a cold 1 MiB read costs %.0f B of heap, budget %.0f", gotBytes, budget)
	}
}

// TestScanChurnAllocBudget pins what a cold 1 MiB read costs once the
// page cache is full: the reader's cache holds two of the blob's eight
// 1 MiB chunks, so every page a read inserts evicts one an earlier read
// fetched, and that page's buffer goes back to the pool for the next
// fetch to decode into. What is left is the metadata descent and the
// per-call fixed cost. The code measured 17-62 KB per read across runs
// when the budget was set (the spread is how often a fetch finds a
// released buffer in the pool), and 1.02-1.05 MiB while the cache kept
// every page in an exact-size buffer of its own and left it to the
// collector.
func TestScanChurnAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop a quarter of what it is given")
	}
	const pageSize, readSize, chunks = 64 << 10, 1 << 20, 8
	cl := durableCluster(t)
	writer, err := cl.NewClient("")
	if err != nil {
		t.Fatal(err)
	}
	reader, err := cl.NewClientCfg("", func(c *client.Config) {
		c.Read.PageCacheBytes = 2 * readSize
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	id, err := writer.Create(ctx, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	chunk := make([]byte, readSize)
	var v uint64
	for i := 0; i < chunks; i++ {
		for j := range chunk {
			chunk[j] = byte(i + j*7)
		}
		if v, err = writer.Append(ctx, id, chunk); err != nil {
			t.Fatal(err)
		}
	}
	if err := writer.Sync(ctx, id, v); err != nil {
		t.Fatal(err)
	}
	next := 0
	read := func() {
		i := next % chunks
		if err := reader.Read(ctx, id, v, chunk, uint64(i)*readSize); err != nil {
			t.Fatal(err)
		}
		if chunk[0] != byte(i) || chunk[readSize-1] != byte(i+(readSize-1)*7) {
			t.Fatalf("read %d returned another chunk's bytes", next)
		}
		next++
	}
	for i := 0; i < chunks; i++ { // one pass fills the cache and the pools
		read()
	}
	gotBytes, _ := heapPerOp(2*chunks, read)
	t.Logf("1 MiB read past a full cache: %.0f B per op", gotBytes)
	if budget := 128.0 * 1024; gotBytes > budget {
		t.Errorf("a 1 MiB read past a full cache costs %.0f B of heap, budget %.0f", gotBytes, budget)
	}
}
