package pagestore

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"testing"

	"blobseer/internal/obs"
	"blobseer/internal/seglog"
	"blobseer/internal/wire"
)

// The store behind Disk is proven in internal/seglog, against this
// layout; what is left to pin here is the instantiation itself and the
// wiring through the adaptor.

// TestPageLayoutPinned: the magics are the on-disk format, and the
// absence of seal fsyncs is a measured-performance decision — neither
// may change by accident.
func TestPageLayoutPinned(t *testing.T) {
	want := seglog.KVLayout{
		Format: seglog.Format{Name: "pagestore", RecMagic: 0xB10B5EE5, SegMagic: 0xB10B5E60, SegFormat: 1, SnapMagic: 0xB10B55A9},
		KeyLen: 16,
	}
	if *pageLayout != want {
		t.Fatalf("pageLayout = %+v, want %+v", *pageLayout, want)
	}
}

// TestDiskMaintenanceThroughAdaptor drives every maintenance entry
// point and counter of the Disk API once, across a restart.
func TestDiskMaintenanceThroughAdaptor(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.log")
	opts := DiskOptions{Sync: true, SegmentBytes: 512}
	d, err := OpenDisk(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	page := func(i byte) []byte { return bytes.Repeat([]byte{i}, 100) }
	for i := byte(0); i < 40; i++ {
		if err := d.Put(pid(i), page(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := byte(0); i < 30; i++ {
		if err := d.Delete(pid(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.kv.Snapshot(); err != nil {
		t.Fatal(err)
	}
	series := func(name string) float64 { return obs.Value(d, name) }
	before := series("store_log_bytes")
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	if after, rewrites, snaps := series("store_log_bytes"), series("store_compactions_total"), series("store_snapshots_total"); after >= before || rewrites == 0 || snaps < 2 {
		t.Fatalf("compaction: %v -> %v bytes, %v rewrites, %v snapshots", before, after, rewrites, snaps)
	}
	if appends, syncs := series("store_appends_total"), series("store_syncs_total"); appends != 70 || syncs != 70 {
		t.Fatalf("write stats = %v appends, %v syncs, want 70 each", appends, syncs)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{path + ".000001", path + ".snapshot"} {
		if _, err := os.Stat(name); err != nil {
			t.Fatalf("expected %s: %v", filepath.Base(name), err)
		}
	}

	d2, err := OpenDisk(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	loaded, entries, replayed := obs.Value(d2, "store_recovery_snapshot_loaded"),
		obs.Value(d2, "store_recovery_snapshot_entries"), obs.Value(d2, "store_recovery_records_replayed")
	if loaded != 1 || entries != 10 || replayed != 0 {
		t.Fatalf("recovery: snapshot loaded %v, %v entries, %v replayed; want 10 pages from the covering snapshot", loaded, entries, replayed)
	}
	for i := byte(0); i < 40; i++ {
		got, err := d2.Get(pid(i), 0, wire.WholePage)
		if i < 30 {
			if !errors.Is(err, ErrNotFound) {
				t.Fatalf("deleted page %d resurrected", i)
			}
		} else if err != nil || !bytes.Equal(got, page(i)) {
			t.Fatalf("page %d after compaction and restart: %v", i, err)
		}
	}
}

// TestDiskGetKeepsNoBufferOnFailure: a Get that fails has lent nothing,
// so whatever it took from the pool it puts back itself. A page-sized
// buffer leaked per failed read would show as a page allocated per
// failed read; a returned one is the next read's buffer. (The bound is
// half a page, not zero, because under the race detector sync.Pool
// drops a quarter of what it is given.)
func TestDiskGetKeepsNoBufferOnFailure(t *testing.T) {
	const pageSize = 64 << 10
	d, err := OpenDisk(filepath.Join(t.TempDir(), "pages.log"), DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Put(pid(1), make([]byte, pageSize)); err != nil {
		t.Fatal(err)
	}
	perFailure := func(id wire.PageID, off, length uint32, want error) float64 {
		t.Helper()
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		const n = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			if data, err := d.Get(id, off, length); data != nil || !errors.Is(err, want) {
				t.Fatalf("Get = %d bytes, %v; want %v", len(data), err, want)
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / n
	}
	if got := perFailure(pid(1), 1, pageSize, ErrBadRange); got > pageSize/2 {
		t.Errorf("a bad range costs %.0f B per Get: its buffer is not going back to the pool", got)
	}
	if got := perFailure(pid(2), 0, wire.WholePage, ErrNotFound); got > 1<<10 {
		t.Errorf("a missing page costs %.0f B per Get: it should never reach the pool", got)
	}
	d.Close()
	if got := perFailure(pid(1), 0, wire.WholePage, seglog.ErrClosed); got > pageSize/2 {
		t.Errorf("a read after Close costs %.0f B per Get: its buffer is not going back to the pool", got)
	}
}

// BenchmarkDiskGet reads whole 64 KiB pages the way the provider does:
// Get, then Release once the bytes have been used.
func BenchmarkDiskGet(b *testing.B) {
	const pageSize, pages = 64 << 10, 256 // one page per pid
	d, err := OpenDisk(filepath.Join(b.TempDir(), "pages.log"), DiskOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	page := make([]byte, pageSize)
	for i := 0; i < pages; i++ {
		page[0] = byte(i)
		if err := d.Put(pid(byte(i)), page); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.SetBytes(pageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := d.Get(pid(byte(i)), 0, wire.WholePage)
		if err != nil || len(data) != pageSize || data[0] != byte(i) {
			b.Fatal(err)
		}
		d.Release(data)
	}
}
