package seglog

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The shared core's fault points, driven as one table: a hook returning
// an error stands in for a crash at that point (the process would simply
// stop), and the assertions state what the next recovery must find —
// either the old state intact, or the new state fully activated, never a
// half state. The stores' own crash-injection tables re-prove this
// end-to-end; this table pins the core in isolation.

var testFmt = &Format{
	Name:      "testlog",
	RecMagic:  0x7E57C0DE,
	SegMagic:  0x5E67E57A,
	SegFormat: 1,
	SnapMagic: 0x5AA75E67,
}

// walFmt is the headerless dialect (records at offset 0, no generation).
var testWALFmt = &Format{
	Name:      "testwal",
	RecMagic:  0x7E57C0DE,
	SnapMagic: 0x5AA75E67,
}

var errCrash = errors.New("injected crash")

func crashAt(target string, point string) func() error {
	if target != point {
		return nil
	}
	return func() error { return errCrash }
}

func TestPublishSnapshotCrashPoints(t *testing.T) {
	for _, point := range []string{"tmp-written", "renamed"} {
		t.Run(point, func(t *testing.T) {
			base := filepath.Join(t.TempDir(), "log")
			if err := testFmt.PublishSnapshot(base, []byte("old state"), true, nil, nil); err != nil {
				t.Fatalf("seed snapshot: %v", err)
			}

			err := testFmt.PublishSnapshot(base, []byte("new state"), true,
				crashAt(point, "tmp-written"), crashAt(point, "renamed"))
			if !errors.Is(err, errCrash) {
				t.Fatalf("crash at %s not surfaced: %v", point, err)
			}

			// What recovery finds. RemoveTmp is what every store's open does
			// first; the live snapshot must then be one complete state.
			removeTmp(osFS{}, base)
			data, err := testFmt.LoadSnapshotFile(SnapshotPath(base))
			if err != nil {
				t.Fatalf("snapshot after crash at %s unreadable: %v", point, err)
			}
			want := "old state"
			if point == "renamed" {
				want = "new state" // the rename happened; the crash was after activation
			}
			if string(data) != want {
				t.Fatalf("snapshot after crash at %s = %q, want %q", point, data, want)
			}
			if _, err := os.Stat(SnapshotTmpPath(base)); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("tmp survives recovery after crash at %s", point)
			}
		})
	}
}

func TestSegmentWriterCommitCrashPoints(t *testing.T) {
	for _, point := range []string{"tmp-written", "renamed"} {
		t.Run(point, func(t *testing.T) {
			base := filepath.Join(t.TempDir(), "log")
			path := SegmentPath(base, 1)
			writeTestSegment(t, testFmt, path, 3, "orig")

			w, err := testFmt.newSegmentWriter(osFS{}, CompactTmpPath(base), 7)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := w.Append(testFmt.Frame([]byte("rewritten-0"))); err != nil {
				t.Fatal(err)
			}
			err = w.Commit(path, crashAt(point, "tmp-written"), crashAt(point, "renamed"))
			if !errors.Is(err, errCrash) {
				t.Fatalf("crash at %s not surfaced: %v", point, err)
			}

			removeTmp(osFS{}, base)
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			gen, err := testFmt.readHeader(osFile{f}, path)
			if err != nil {
				t.Fatalf("segment after crash at %s unreadable: %v", point, err)
			}
			var payloads []string
			if _, err := testFmt.Scan(f, path, false, func(p []byte, _ int64) error {
				payloads = append(payloads, string(p))
				return nil
			}); err != nil {
				t.Fatalf("segment after crash at %s does not scan: %v", point, err)
			}
			// Before the rename the old segment is untouched; after it the
			// rewrite is fully live, generation bump included.
			if point == "tmp-written" {
				if gen != 1 || len(payloads) != 3 || payloads[0] != "orig-0" {
					t.Fatalf("old segment damaged before rename: gen %d, %v", gen, payloads)
				}
			} else {
				if gen != 7 || len(payloads) != 1 || payloads[0] != "rewritten-0" {
					t.Fatalf("rewrite not fully live after rename: gen %d, %v", gen, payloads)
				}
			}
		})
	}
}

// writeTestSegment creates a sealed segment at path with n framed
// records "<tag>-<i>", generation 1.
func writeTestSegment(t *testing.T, ft *Format, path string, n int, tag string) {
	t.Helper()
	w, err := ft.newSegmentWriter(osFS{}, path, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := w.Append(ft.Frame([]byte(tag + "-" + string(rune('0'+i))))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Commit(path, nil, nil); err != nil {
		t.Fatal(err)
	}
	w.File().Close()
}

func TestScanTruncatesTornTailOnHighestSegmentOnly(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "log.000001")
	writeTestSegment(t, testFmt, path, 2, "rec")
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	whole := info.Size()
	// Tear the tail: append a frame and cut it mid-payload, as a crash
	// between a batch's write and its sync would.
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	frame := testFmt.Frame([]byte("torn-away"))
	if _, err := f.WriteAt(frame[:len(frame)-3], whole); err != nil {
		t.Fatal(err)
	}

	// A sealed segment must refuse the torn frame...
	if _, err := testFmt.Scan(f, path, false, func([]byte, int64) error { return nil }); err == nil ||
		!strings.Contains(err.Error(), "torn") {
		t.Fatalf("sealed segment accepted a torn record: %v", err)
	}
	// ...and the highest segment truncates it away and keeps the prefix.
	var got []string
	end, err := testFmt.Scan(f, path, true, func(p []byte, _ int64) error {
		got = append(got, string(p))
		return nil
	})
	if err != nil {
		t.Fatalf("torn-tail recovery: %v", err)
	}
	if end != whole || len(got) != 2 {
		t.Fatalf("recovered to offset %d with %v, want offset %d with 2 records", end, got, whole)
	}
	if info, err = f.Stat(); err != nil || info.Size() != whole {
		t.Fatalf("torn tail not truncated: size %d, want %d (err %v)", info.Size(), whole, err)
	}
	f.Close()
}

func TestScanRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "log.000001")
	writeTestSegment(t, testFmt, path, 2, "rec")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, corrupt := range map[string]func([]byte){
		"payload-bit-flip": func(b []byte) { b[len(b)-1] ^= 0x01 },
		"frame-magic":      func(b []byte) { b[HeaderSize] ^= 0xFF },
	} {
		t.Run(name, func(t *testing.T) {
			bad := append([]byte(nil), raw...)
			corrupt(bad)
			p := filepath.Join(t.TempDir(), "bad.000001")
			if err := os.WriteFile(p, bad, 0o644); err != nil {
				t.Fatal(err)
			}
			f, err := os.Open(p)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			// Corruption is corruption on every segment: allowTorn only
			// forgives a clean tear at the tail, never a failed check.
			if _, err := testFmt.Scan(f, p, true, func([]byte, int64) error { return nil }); err == nil {
				t.Fatal("scan accepted corrupted segment")
			}
		})
	}
}

func TestHeaderlessSegmentsStartAtZero(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.000001")
	w, err := testWALFmt.newSegmentWriter(osFS{}, path, 99)
	if err != nil {
		t.Fatal(err)
	}
	first, err := w.Append(testWALFmt.Frame([]byte("ev")))
	if err != nil {
		t.Fatal(err)
	}
	if first != 0 {
		t.Fatalf("headerless first record at offset %d, want 0", first)
	}
	if err := w.Commit(path, nil, nil); err != nil {
		t.Fatal(err)
	}
	w.File().Close()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	n := 0
	if _, err := testWALFmt.Scan(f, path, false, func(p []byte, off int64) error {
		if off != FrameHeaderSize {
			t.Errorf("payload offset %d, want %d", off, FrameHeaderSize)
		}
		n++
		return nil
	}); err != nil || n != 1 {
		t.Fatalf("headerless scan: %d records, %v", n, err)
	}
}

// TestScanPayloadIsOnlyValidDuringVisit pins Scan's reuse contract: a
// payload is a slice of the scan's window, not a copy of the record. The
// test lends the scan a window of its own and overwrites it afterwards,
// as the next pread would: what a visitor kept reads garbage, what it
// copied does not.
func TestScanPayloadIsOnlyValidDuringVisit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.000001")
	writeTestSegment(t, testFmt, path, 3, "rec")
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var win []byte
	var kept, copied [][]byte
	if _, _, err := testFmt.scanFrames(&win, osFile{f}, path, false, -1, func(p []byte, _ int64, _ uint32) error {
		kept = append(kept, p)
		copied = append(copied, append([]byte(nil), p...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range win {
		win[i] = 0xDB
	}
	for i, want := range []string{"rec-0", "rec-1", "rec-2"} {
		if string(copied[i]) != want {
			t.Fatalf("copied payload %d = %q, want %q", i, copied[i], want)
		}
		if string(kept[i]) != strings.Repeat("\xDB", len(want)) {
			t.Fatalf("payload %d kept past its visit reads %q: it is not the window's", i, kept[i])
		}
	}
}

// TestScanCrossesWindows walks records that straddle the scan's window
// in every way: ending exactly where a window could, split across two,
// larger than a whole window — and then the same file torn inside its
// last record.
func TestScanCrossesWindows(t *testing.T) {
	sizes := []int{10, ioWindow - 2*FrameHeaderSize - 10 - HeaderSize, 700_000, 500_000, ioWindow + 500_000, 5, 0, 900_000}
	path := filepath.Join(t.TempDir(), "log.000001")
	w, err := testFmt.newSegmentWriter(osFS{}, path, 1)
	if err != nil {
		t.Fatal(err)
	}
	payload := func(i int) []byte {
		p := make([]byte, sizes[i])
		for j := range p {
			p[j] = byte(i*31 + j*7)
		}
		return p
	}
	var offs []int64
	for i := range sizes {
		off, err := w.Append(testFmt.Frame(payload(i)))
		if err != nil {
			t.Fatal(err)
		}
		offs = append(offs, off+FrameHeaderSize)
	}
	if err := w.Commit(path, nil, nil); err != nil {
		t.Fatal(err)
	}
	f := w.File().(osFile).File
	defer f.Close()
	scan := func(allowTorn bool, want int) int64 {
		t.Helper()
		n := 0
		end, err := testFmt.Scan(f, path, allowTorn, func(p []byte, off int64) error {
			if off != offs[n] || !bytes.Equal(p, payload(n)) {
				t.Fatalf("record %d: offset %d (want %d), %d bytes (want %d) or wrong bytes", n, off, offs[n], len(p), sizes[n])
			}
			n++
			return nil
		})
		if err != nil || n != want {
			t.Fatalf("scan visited %d records, want %d: %v", n, want, err)
		}
		return end
	}
	if end := scan(false, len(sizes)); end != w.Size() {
		t.Fatalf("scan ended at %d, want %d", end, w.Size())
	}
	if err := f.Truncate(w.Size() - 400_000); err != nil {
		t.Fatal(err)
	}
	last := len(sizes) - 1
	if end := scan(true, last); end != offs[last]-FrameHeaderSize {
		t.Fatalf("torn scan ended at %d, want %d", end, offs[last]-FrameHeaderSize)
	}
}

// TestSkimDecidesBySize walks records on either side of skimMin with a
// prefix wanted: a frame no longer than skimMin reaches the visitor
// whole and CRC-checked, so rot anywhere in it fails the walk; a longer
// one contributes its prefix alone, so rot behind the prefix goes
// unseen. The walk reports that it skimmed exactly when some frame was
// longer than skimMin.
func TestSkimDecidesBySize(t *testing.T) {
	const prefix = 8
	edge := skimMin - FrameHeaderSize // the largest payload read whole
	for _, c := range []struct {
		name  string
		sizes []int
	}{
		{"short", []int{0, 5, 700, edge, 9}},
		{"long", []int{edge + 1, 64 << 10, 4096}},
		{"mixed", []int{3, 4096, 700, edge + 1, 64 << 10, edge, 10}},
	} {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "log.000001")
			w, err := testFmt.newSegmentWriter(osFS{}, path, 1)
			must(t, err)
			payload := func(i int) []byte { return bytes.Repeat([]byte{byte(i + 1)}, c.sizes[i]) }
			var offs []int64
			long := false
			for i, n := range c.sizes {
				off, err := w.Append(testFmt.Frame(payload(i)))
				must(t, err)
				offs = append(offs, off+FrameHeaderSize)
				long = long || n > edge
			}
			must(t, w.Commit(path, nil, nil))
			f := w.File().(osFile).File
			defer f.Close()
			walk := func() (bool, error) {
				var win []byte
				n := 0
				_, skimmed, err := testFmt.scanFrames(&win, osFile{f}, path, false, prefix, func(p []byte, off int64, plen uint32) error {
					want := payload(n)
					if c.sizes[n] > edge {
						want = want[:prefix]
					}
					if off != offs[n] || int(plen) != c.sizes[n] || !bytes.Equal(p, want) {
						t.Fatalf("record %d: %d of %d bytes at %d, want %d of %d at %d", n, len(p), plen, off, len(want), c.sizes[n], offs[n])
					}
					n++
					return nil
				})
				if err == nil && n != len(c.sizes) {
					t.Fatalf("walk visited %d of %d records", n, len(c.sizes))
				}
				return skimmed, err
			}
			if skimmed, err := walk(); err != nil || skimmed != long {
				t.Fatalf("walk = skimmed %v, %v; want skimmed %v", skimmed, err, long)
			}
			short := -1
			for i, n := range c.sizes {
				switch {
				case n > edge:
					flipByte(t, path, offs[i]+prefix)
				case n > prefix:
					short = i
				}
			}
			if _, err := walk(); err != nil {
				t.Fatalf("rot behind the prefix of a skimmed record was read: %v", err)
			}
			if short < 0 {
				return
			}
			flipByte(t, path, offs[short]+prefix)
			if _, err := walk(); err == nil || !strings.Contains(err.Error(), "record crc mismatch") {
				t.Fatalf("walk over a rotten %d-byte record = %v, want a crc mismatch", c.sizes[short], err)
			}
		})
	}
}
