package pagestore

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"

	"blobseer/internal/obs"
	"blobseer/internal/wire"
)

// stored reads a store's page count and summed page size off its series.
func stored(s Store) (pages, bytes uint64) {
	return uint64(obs.Value(s, "store_keys")), uint64(obs.Value(s, "store_value_bytes"))
}

func pid(b byte) wire.PageID {
	var id wire.PageID
	id[0] = b
	id[15] = b ^ 0xFF
	return id
}

// exerciseStore runs the Store conformance suite on any engine.
func exerciseStore(t *testing.T, s Store) {
	t.Helper()

	// Missing page.
	if _, err := s.Get(pid(1), 0, wire.WholePage); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get missing = %v, want ErrNotFound", err)
	}

	// Round trip.
	data := []byte("0123456789abcdef")
	if err := s.Put(pid(1), data); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(pid(1), 0, wire.WholePage)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("Get = %q, %v", got, err)
	}

	// Ranged reads.
	got, err = s.Get(pid(1), 4, 6)
	if err != nil || !bytes.Equal(got, []byte("456789")) {
		t.Fatalf("ranged Get = %q, %v", got, err)
	}
	got, err = s.Get(pid(1), 10, wire.WholePage)
	if err != nil || !bytes.Equal(got, []byte("abcdef")) {
		t.Fatalf("tail Get = %q, %v", got, err)
	}
	if got, err := s.Get(pid(1), 16, wire.WholePage); err != nil || len(got) != 0 {
		t.Fatalf("empty tail Get = %q, %v", got, err)
	}

	// Out-of-range reads.
	if _, err := s.Get(pid(1), 17, wire.WholePage); !errors.Is(err, ErrBadRange) {
		t.Fatalf("past-end Get err = %v, want ErrBadRange", err)
	}
	if _, err := s.Get(pid(1), 10, 7); !errors.Is(err, ErrBadRange) {
		t.Fatalf("overlong Get err = %v, want ErrBadRange", err)
	}

	// Idempotent re-put.
	if err := s.Put(pid(1), data); err != nil {
		t.Fatal(err)
	}
	pages, byteCount := stored(s)
	if pages != 1 || byteCount != uint64(len(data)) {
		t.Fatalf("Stats after idempotent Put = %d pages, %d bytes", pages, byteCount)
	}

	// Zero-length page.
	if err := s.Put(pid(2), nil); err != nil {
		t.Fatal(err)
	}
	if got, err := s.Get(pid(2), 0, wire.WholePage); err != nil || len(got) != 0 {
		t.Fatalf("empty page Get = %q, %v", got, err)
	}

	// Mutating the input buffer after Put must not affect the store.
	buf := []byte("mutable")
	s.Put(pid(3), buf)
	buf[0] = 'X'
	got, _ = s.Get(pid(3), 0, wire.WholePage)
	if string(got) != "mutable" {
		t.Fatalf("store aliased caller buffer: %q", got)
	}

	// Delete removes a page; deleting again (or a never-stored id) is a
	// no-op.
	if err := s.Delete(pid(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(pid(2), 0, wire.WholePage); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after Delete = %v, want ErrNotFound", err)
	}
	if err := s.Delete(pid(2)); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(pid(99)); err != nil {
		t.Fatal(err)
	}
	pages, byteCount = stored(s)
	if pages != 2 || byteCount != uint64(len(data)+len(buf)) {
		t.Fatalf("Stats after Delete = %d pages, %d bytes", pages, byteCount)
	}
}

// openMem opens a page store in memory, closed when the test ends.
func openMem(t *testing.T) *Disk {
	t.Helper()
	d, err := Open(nil, "", DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

func TestMemConformance(t *testing.T) { exerciseStore(t, openMem(t)) }

func TestDiskConformance(t *testing.T) {
	d, err := Open(nil, filepath.Join(t.TempDir(), "pages.log"), DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	exerciseStore(t, d)
}

// TestReleaseNeverTouchesAStoredPage: whatever a store does with the
// slices it is handed back, the pages it stores are not among them —
// on disk, and in memory, where a page is a few bytes of the same RAM
// the lent buffers come from. With released buffers poisoned
// (export_test.go) a Release that reached a stored page would destroy
// it, and the thousand reads of other pages after it would be served
// out of recycled memory.
func TestReleaseNeverTouchesAStoredPage(t *testing.T) {
	disk, err := Open(nil, filepath.Join(t.TempDir(), "pages.log"), DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	for name, s := range map[string]Store{"Mem": openMem(t), "Disk": disk} {
		page := func(i int) []byte { return bytes.Repeat([]byte{byte(i), byte(i >> 8), 0x5A}, 700) }
		const others = 8
		for i := 0; i <= others; i++ {
			if err := s.Put(pid(byte(i)), page(i)); err != nil {
				t.Fatal(err)
			}
		}
		got, err := s.Get(pid(0), 0, wire.WholePage)
		if err != nil || !bytes.Equal(got, page(0)) {
			t.Fatalf("%s: Get = %v", name, err)
		}
		s.Release(got)
		for i := 0; i < 1000; i++ {
			n := 1 + i%others
			got, err := s.Get(pid(byte(n)), uint32(i%5), wire.WholePage)
			if err != nil || !bytes.Equal(got, page(n)[i%5:]) {
				t.Fatalf("%s: read %d of page %d damaged: %v", name, i, n, err)
			}
			s.Release(got)
		}
		if got, err = s.Get(pid(0), 0, wire.WholePage); err != nil || !bytes.Equal(got, page(0)) {
			t.Fatalf("%s: a page read and released once no longer reads back: %v", name, err)
		}
	}
}

func TestMemConcurrentPutGet(t *testing.T) {
	m := openMem(t)
	const workers = 16
	const perWorker = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			gen := wire.NewPageIDGen()
			for i := 0; i < perWorker; i++ {
				id := gen.Next()
				data := []byte(fmt.Sprintf("w%d-i%d", w, i))
				if err := m.Put(id, data); err != nil {
					t.Error(err)
					return
				}
				got, err := m.Get(id, 0, wire.WholePage)
				if err != nil || !bytes.Equal(got, data) {
					t.Errorf("Get = %q, %v", got, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	pages, _ := stored(m)
	if pages != workers*perWorker {
		t.Fatalf("pages = %d, want %d", pages, workers*perWorker)
	}
}

func TestDiskRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.log")
	d, err := Open(nil, path, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := map[byte][]byte{}
	for i := byte(0); i < 20; i++ {
		data := bytes.Repeat([]byte{i}, int(i)*13)
		want[i] = data
		if err := d.Put(pid(i), data); err != nil {
			t.Fatal(err)
		}
	}
	d.Close()

	// Reopen and verify every page survived.
	d2, err := Open(nil, path, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	for i, data := range want {
		got, err := d2.Get(pid(i), 0, wire.WholePage)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("page %d after recovery: %q, %v", i, got, err)
		}
	}
	pages, _ := stored(d2)
	if pages != 20 {
		t.Fatalf("pages after recovery = %d", pages)
	}
}

func TestDiskSyncMode(t *testing.T) {
	d, err := Open(nil, filepath.Join(t.TempDir(), "pages.log"), DiskOptions{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Put(pid(9), []byte("synced")); err != nil {
		t.Fatal(err)
	}
	got, err := d.Get(pid(9), 0, wire.WholePage)
	if err != nil || string(got) != "synced" {
		t.Fatalf("Get = %q, %v", got, err)
	}
}

func TestDiskUseAfterClose(t *testing.T) {
	d, _ := Open(nil, filepath.Join(t.TempDir(), "pages.log"), DiskOptions{})
	d.Close()
	if err := d.Put(pid(1), []byte("x")); err == nil {
		t.Fatal("Put after Close should fail")
	}
	if _, err := d.Get(pid(1), 0, wire.WholePage); err == nil {
		t.Fatal("Get after Close should fail")
	}
	if err := d.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
}

// TestQuickMemMatchesDisk: the store in memory and the store on disk
// both answer every put and ranged get as a plain map of pages does —
// the first put of an id wins, and a range must lie inside its page.
func TestQuickMemMatchesDisk(t *testing.T) {
	disk, err := Open(nil, filepath.Join(t.TempDir(), "pages.log"), DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	stores := map[string]Store{"Mem": openMem(t), "Disk": disk}
	model := make(map[wire.PageID][]byte)
	f := func(idByte byte, data []byte, off, length uint16) bool {
		id := pid(idByte)
		if _, ok := model[id]; !ok {
			model[id] = append([]byte{}, data...)
		}
		page := model[id]
		end := int(off) + int(length)
		inside := int(off) <= len(page) && end <= len(page)
		for name, s := range stores {
			if err := s.Put(id, data); err != nil {
				t.Logf("%s: Put: %v", name, err)
				return false
			}
			got, err := s.Get(id, uint32(off), uint32(length))
			if !inside {
				if !errors.Is(err, ErrBadRange) {
					t.Logf("%s: Get [%d,+%d) of a %d-byte page = %v, want ErrBadRange", name, off, length, len(page), err)
					return false
				}
				continue
			}
			if err != nil || !bytes.Equal(got, page[off:end]) {
				t.Logf("%s: Get [%d,+%d) = %q, %v, want %q", name, off, length, got, err, page[off:end])
				return false
			}
			s.Release(got)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestMemReturnsDeletedPagesAtCompaction: a store in memory gives the
// RAM of deleted pages back when it compacts, as a store on disk gives
// back its disk space: store_log_bytes, which in memory is RAM held,
// falls to what the live pages need.
func TestMemReturnsDeletedPagesAtCompaction(t *testing.T) {
	m := openMem(t)
	page := bytes.Repeat([]byte{0xA5}, 4096)
	for i := byte(0); i < 64; i++ {
		if err := m.Put(pid(i), page); err != nil {
			t.Fatal(err)
		}
	}
	held := func() float64 { return obs.Value(m, "store_log_bytes") }
	full := held()
	for i := byte(0); i < 60; i++ {
		if err := m.Delete(pid(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := held(); got < full {
		t.Fatalf("store_log_bytes fell from %v to %v before any compaction", full, got)
	}
	if err := m.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := held(); got > full/8 {
		t.Fatalf("store_log_bytes after deleting 60 of 64 pages and compacting = %v, want at most %v (of %v)", got, full/8, full)
	}
	for i := byte(60); i < 64; i++ {
		if got, err := m.Get(pid(i), 0, wire.WholePage); err != nil || !bytes.Equal(got, page) {
			t.Fatalf("live page %d after compaction: %v", i, err)
		}
	}
}
