package seglog

import (
	"bytes"
	"errors"
	"io"
	"io/fs"
	"os"
	"sync"
	"testing"
)

// TestMemFSKeepsTheFileContract pins what a KV relies on from a file,
// which the in-memory file system must do as *os.File does: a short
// read is an error, bytes a file grows over read as zeros, and a handle
// keeps its file across Rename and Remove.
func TestMemFSKeepsTheFileContract(t *testing.T) {
	m := newMemFS()
	f, err := m.OpenFile("d/a", os.O_CREATE)
	must(t, err)
	if _, err := m.OpenFile("d/missing", 0); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("open of a missing file = %v, want ErrNotExist", err)
	}
	data := bytes.Repeat([]byte("0123456789"), memChunk/5) // two chunks
	if _, err := f.WriteAt(data, 3); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data)+3)
	if n, err := f.ReadAt(got, 0); err != nil || n != len(got) || !bytes.Equal(got[3:], data) || !bytes.Equal(got[:3], []byte{0, 0, 0}) {
		t.Fatalf("ReadAt across chunks = %d, %v", n, err)
	}
	if n, err := f.ReadAt(got, 10); n != len(got)-10 || err != io.EOF {
		t.Fatalf("ReadAt past the end = %d, %v, want %d, io.EOF", n, err, len(got)-10)
	}

	must(t, f.Truncate(5))
	must(t, f.Truncate(memChunk+9))
	if size, err := f.Size(); size != memChunk+9 || err != nil {
		t.Fatalf("Size = %d, %v", size, err)
	}
	got = make([]byte, memChunk+9)
	if _, err := f.ReadAt(got, 0); err != nil || !bytes.Equal(got[:5], []byte{0, 0, 0, '0', '1'}) || bytes.ContainsAny(got[5:], "0123456789") {
		t.Fatalf("a file grown over truncated bytes reads them back: %v", err)
	}

	must(t, m.Rename("d/a", "d/b"))
	if _, err := f.WriteAt([]byte("moved"), 0); err != nil {
		t.Fatal(err)
	}
	if b, err := m.ReadFile("d/b"); err != nil || string(b[:5]) != "moved" {
		t.Fatalf("a write through the handle after Rename: %q, %v", b[:5], err)
	}
	names, err := m.List("d")
	if err != nil || len(names) != 1 || names[0] != "b" {
		t.Fatalf("List = %q, %v", names, err)
	}
	must(t, m.Remove("d/b"))
	if _, err := f.ReadAt(got[:5], 0); err != nil || string(got[:5]) != "moved" {
		t.Fatalf("a read through the handle after Remove: %q, %v", got[:5], err)
	}
}

// TestMemFSReadsBesideAppends: a segment is read while the committer
// appends to it; under -race this is the check that the two share the
// file's bytes safely.
func TestMemFSReadsBesideAppends(t *testing.T) {
	f, err := newMemFS().OpenFile("seg", os.O_CREATE)
	must(t, err)
	const rec, n = 1000, 300
	frame := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, rec) }
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, rec)
			for seen := 0; seen < n; {
				size, _ := f.Size() // never fails in memory
				for ; seen < int(size/rec); seen++ {
					if _, err := f.ReadAt(buf, int64(seen*rec)); err != nil || !bytes.Equal(buf, frame(seen)) {
						t.Errorf("record %d read beside appends: %v", seen, err)
						return
					}
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		if _, err := f.WriteAt(frame(i), int64(i*rec)); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
}
