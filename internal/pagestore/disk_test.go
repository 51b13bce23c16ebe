package pagestore

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"blobseer/internal/seglog"
	"blobseer/internal/wire"
)

// The store behind Disk is proven in internal/seglog, against this
// layout's key framing; what is left to pin here is the instantiation
// itself and the wiring through the adaptor.

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
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	before := d.LogBytes()
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	if after := d.LogBytes(); after >= before || d.Compactions() == 0 || d.Snapshots() < 2 {
		t.Fatalf("compaction: %d -> %d bytes, %d rewrites, %d snapshots", before, after, d.Compactions(), d.Snapshots())
	}
	if appends, syncs := d.WriteStats(); appends != 70 || syncs != 70 {
		t.Fatalf("write stats = %d appends, %d syncs, want 70 each", appends, syncs)
	}
	if d.LastCapturePause() <= 0 {
		t.Fatal("no capture pause recorded")
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
	if st := d2.RecoveryStats(); !st.SnapshotLoaded || st.SnapshotEntries != 10 || st.RecordsReplayed != 0 {
		t.Fatalf("recovery stats = %+v, want 10 pages from the covering snapshot", st)
	}
	for i := byte(0); i < 40; i++ {
		got, err := d2.Get(pid(i), 0, wire.WholePage)
		if i < 30 {
			if d2.Has(pid(i)) || err == nil {
				t.Fatalf("deleted page %d resurrected", i)
			}
		} else if err != nil || !bytes.Equal(got, page(i)) {
			t.Fatalf("page %d after compaction and restart: %v", i, err)
		}
	}
}
