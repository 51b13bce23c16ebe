package cluster

import (
	"context"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"blobseer/internal/transport"
	"blobseer/internal/vclock"
)

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
	dir := t.TempDir()
	net := transport.NewInproc()
	defer net.Close()
	cl, err := StartInproc(net, vclock.NewReal(), Config{
		PageDir:        filepath.Join(dir, "pages"),
		MetaLogDir:     filepath.Join(dir, "meta"),
		VersionWALPath: filepath.Join(dir, "vm", "wal"),
		HeartbeatEvery: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
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
		const n = 300
		gc := debug.SetGCPercent(-1)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			tc.op()
		}
		runtime.ReadMemStats(&after)
		debug.SetGCPercent(gc)
		gotBytes := float64(after.TotalAlloc-before.TotalAlloc) / n
		gotAllocs := float64(after.Mallocs-before.Mallocs) / n
		t.Logf("%s: %.0f B and %.0f allocations per op", tc.name, gotBytes, gotAllocs)
		if gotBytes > tc.bytes || gotAllocs > tc.allocs {
			t.Errorf("%s costs %.0f B in %.0f allocations, budget %.0f B in %.0f",
				tc.name, gotBytes, gotAllocs, tc.bytes, tc.allocs)
		}
	}
}
