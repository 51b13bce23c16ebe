package seglog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"blobseer/internal/wire"
)

// The KV's proof harness runs every scenario against both layouts in
// production: the page store's 16-byte page ids without seal fsyncs,
// and the metadata log's 33-byte tree-node keys with them. The layouts
// are spelled out here, not imported, so the golden-bytes test pins the
// magics independently of the packages that declare them. The subtest
// labels are the ids these scenarios have always run under: "varkey" is
// the metadata log's layout, whose keys segment format 1 framed with a
// length.
var kvLayouts = []struct {
	name string
	ly   *KVLayout
}{
	{"fixed16", &KVLayout{
		Format: Format{Name: "pagestore", RecMagic: 0xB10B5EE5, SegMagic: 0xB10B5E60, SegFormat: 1, SnapMagic: 0xB10B55A9},
		KeyLen: 16,
	}},
	{"varkey", &KVLayout{
		Format:   Format{Name: "dht", RecMagic: 0xD47A5EE5, SegMagic: 0xD47A5E60, SegFormat: 2, SnapMagic: 0xD47A55A9},
		KeyLen:   33,
		SealSync: true,
	}},
}

// eachLayout runs f once per layout, as a subtest.
func eachLayout(t *testing.T, f func(t *testing.T, ly *KVLayout)) {
	for _, l := range kvLayouts {
		t.Run(l.name, func(t *testing.T) { f(t, l.ly) })
	}
}

// eachFS runs f under eachLayout on the operating system's file system
// and in memory (an empty path): for the tests that never reopen a
// store, which is all a store in memory ever does.
func eachFS(t *testing.T, f func(t *testing.T, ly *KVLayout, path string)) {
	eachLayout(t, func(t *testing.T, ly *KVLayout) {
		t.Run("os", func(t *testing.T) { f(t, ly, filepath.Join(t.TempDir(), "kv.log")) })
		t.Run("mem", func(t *testing.T) { f(t, ly, "") })
	})
}

// tkey builds the i-th deterministic key of ly's size.
func tkey(ly *KVLayout, i int) string {
	id := make([]byte, ly.KeyLen)
	binary.LittleEndian.PutUint64(id[0:8], uint64(i+1)*0x9E3779B97F4A7C15)
	binary.LittleEndian.PutUint64(id[8:16], uint64(i))
	return string(id)
}

func tval(i int) []byte { return bytes.Repeat([]byte{byte(i), byte(i >> 3)}, 20+i%23) }

// has reports whether s stores key.
func has(s *KV, key string) bool {
	_, ok := s.Len(key)
	return ok
}

func mustOpenKV(t *testing.T, path string, ly *KVLayout, opts KVOptions) *KV {
	t.Helper()
	s, err := OpenKV(path, ly, opts)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// putN stores keys [from, to); deleteIf tombstones those of [0, n) the
// predicate selects.
func putN(t *testing.T, s *KV, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		must(t, s.Put(tkey(s.ly, i), tval(i)))
	}
}

func deleteIf(t *testing.T, s *KV, n int, dead func(i int) bool) {
	t.Helper()
	for i := 0; i < n; i++ {
		if dead(i) {
			must(t, s.Delete(tkey(s.ly, i)))
		}
	}
}

// verifyLive asserts that of keys [0, n) exactly those alive selects
// are stored, byte-identically, and that the store holds no other key.
func verifyLive(t *testing.T, s *KV, n int, alive func(i int) bool) {
	t.Helper()
	want := 0
	for i := 0; i < n; i++ {
		key := tkey(s.ly, i)
		if !alive(i) {
			if has(s, key) {
				t.Fatalf("deleted key %d resurrected", i)
			}
			continue
		}
		want++
		got, err := s.Get(key, 0, wire.WholePage)
		if err != nil || !bytes.Equal(got, tval(i)) {
			t.Fatalf("live key %d not byte-identical: %v", i, err)
		}
	}
	if st := stats(s); st.Keys != uint64(want) {
		t.Fatalf("keys = %d, want %d", st.Keys, want)
	}
}

func all(int) bool { return true }

func truncateTail(t *testing.T, path string, n int64) {
	t.Helper()
	info, err := os.Stat(path)
	must(t, err)
	must(t, os.Truncate(path, info.Size()-n))
}

func flipByte(t *testing.T, path string, off int64) {
	t.Helper()
	raw, err := os.ReadFile(path)
	must(t, err)
	raw[off] ^= 0xFF
	must(t, os.WriteFile(path, raw, 0o644))
}

func appendBytes(t *testing.T, path string, p []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	must(t, err)
	_, err = f.Write(p)
	must(t, err)
	must(t, f.Close())
}

func segmentCount(t *testing.T, ly *KVLayout, base string) int {
	t.Helper()
	segs, err := ly.listSegments(osFS{}, base)
	must(t, err)
	return len(segs)
}

func TestKVContract(t *testing.T) {
	eachFS(t, func(t *testing.T, ly *KVLayout, path string) {
		s := mustOpenKV(t, path, ly, KVOptions{})
		k, v := tkey(ly, 1), []byte("0123456789")
		must(t, s.Put(k, v))
		must(t, s.Put(k, []byte("ignored: values are immutable")))
		for _, c := range []struct {
			off, length uint32
			want        string
		}{{0, wire.WholePage, "0123456789"}, {3, wire.WholePage, "3456789"}, {2, 4, "2345"}, {10, 0, ""}, {10, wire.WholePage, ""}} {
			got, err := s.Get(k, c.off, c.length)
			if err != nil || string(got) != c.want {
				t.Fatalf("Get(%d,%d) = %q, %v; want %q", c.off, c.length, got, err, c.want)
			}
		}
		for _, c := range [][2]uint32{{11, wire.WholePage}, {8, 3}, {11, 0}} {
			if _, err := s.Get(k, c[0], c[1]); !errors.Is(err, ErrBadRange) {
				t.Fatalf("Get(%d,%d) = %v, want ErrBadRange", c[0], c[1], err)
			}
		}
		if _, err := s.Get(tkey(ly, 2), 0, wire.WholePage); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Get of unknown key = %v, want ErrNotFound", err)
		}
		must(t, s.Delete(tkey(ly, 2))) // unknown: no-op, logs nothing
		if st := stats(s); st.Keys != 1 || st.ValueBytes != 10 || st.Appends != 1 {
			t.Fatalf("stats = %+v, want 1 key, 10 bytes, 1 append", st)
		}
		must(t, s.Delete(k))
		if st := stats(s); has(s, k) || st.Keys != 0 || st.ValueBytes != 0 {
			t.Fatalf("after delete: has=%v stats=%+v", has(s, k), st)
		}
		for _, bad := range []string{"short", tkey(ly, 1) + "x"} {
			if err := s.Put(bad, v); err == nil {
				t.Fatalf("Put accepted a %d-byte key", len(bad))
			}
			if _, err := s.PutBatch([][]byte{[]byte(tkey(ly, 4)), []byte(bad)}, [][]byte{v, v}); err == nil || has(s, tkey(ly, 4)) {
				t.Fatalf("PutBatch with a %d-byte key: %v", len(bad), err)
			}
		}
		must(t, s.Close())
		must(t, s.Close()) // idempotent
		if err := s.Put(tkey(ly, 3), v); !errors.Is(err, ErrClosed) {
			t.Fatalf("Put after Close = %v, want ErrClosed", err)
		}
		if _, err := s.Get(k, 0, 1); !errors.Is(err, ErrClosed) {
			t.Fatalf("Get after Close = %v, want ErrClosed", err)
		}
	})
}

// TestKVGetAppend: GetAppend is Get onto the caller's memory — the
// prefix stays, room that is there is used, room that is not is made
// once and exactly, and a failure hands nothing back.
func TestKVGetAppend(t *testing.T) {
	eachFS(t, func(t *testing.T, ly *KVLayout, path string) {
		s := mustOpenKV(t, path, ly, KVOptions{})
		k, v := tkey(ly, 1), []byte("0123456789")
		must(t, s.Put(k, v))
		if n, ok := s.Len(k); n != 10 || !ok {
			t.Fatalf("Len = %d, %v", n, ok)
		}
		if n, ok := s.Len(tkey(ly, 2)); n != 0 || ok {
			t.Fatalf("Len of unknown key = %d, %v", n, ok)
		}

		roomy := append(make([]byte, 0, 64), "prefix:"...)
		got, err := s.GetAppend(roomy, k, 2, 4)
		if err != nil || string(got) != "prefix:2345" || &got[0] != &roomy[0] {
			t.Fatalf("GetAppend with room = %q, %v (in place: %v)", got, err, &got[0] == &roomy[0])
		}
		tight := []byte("prefix:")
		got, err = s.GetAppend(tight, k, 0, wire.WholePage)
		if err != nil || string(got) != "prefix:0123456789" || cap(got) != len(got) {
			t.Fatalf("GetAppend without room = %q (cap %d), %v", got, cap(got), err)
		}
		if string(tight) != "prefix:" {
			t.Fatalf("the caller's slice was touched: %q", tight)
		}
		if got, err = s.GetAppend(roomy, k, 10, wire.WholePage); err != nil || string(got) != "prefix:" {
			t.Fatalf("empty range = %q, %v", got, err)
		}

		for _, c := range []struct {
			key         string
			off, length uint32
			want        error
		}{{k, 11, wire.WholePage, ErrBadRange}, {k, 8, 3, ErrBadRange}, {tkey(ly, 2), 0, wire.WholePage, ErrNotFound}} {
			if got, err := s.GetAppend(roomy, c.key, c.off, c.length); got != nil || !errors.Is(err, c.want) {
				t.Fatalf("GetAppend(%d,%d) = %q, %v; want nil, %v", c.off, c.length, got, err, c.want)
			}
		}
		must(t, s.Close())
		if got, err := s.GetAppend(roomy, k, 0, 1); got != nil || !errors.Is(err, ErrClosed) {
			t.Fatalf("GetAppend after Close = %q, %v", got, err)
		}
		if string(roomy) != "prefix:" {
			t.Fatalf("failed reads changed the caller's slice: %q", roomy)
		}
	})
}

// TestKVGetAppendAcrossCompaction reads every surviving key both ways
// while a compactor rewrites the segments under the readers — the
// file-handle swap a read must not straddle. Each reader keeps one
// buffer for all its reads, as a pooled caller would.
func TestKVGetAppendAcrossCompaction(t *testing.T) {
	eachFS(t, func(t *testing.T, ly *KVLayout, path string) {
		s := mustOpenKV(t, path, ly, KVOptions{SegmentBytes: 2048})
		const n = 96
		putN(t, s, 0, n)
		alive := func(i int) bool { return i%4 == 3 }
		done := make(chan struct{})
		var wg sync.WaitGroup
		for r := 0; r < 2; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				buf := make([]byte, 0, 128)
				for i := r; ; i = (i + 7) % n {
					select {
					case <-done:
						return
					default:
					}
					if !alive(i) {
						continue
					}
					key := tkey(ly, i)
					into, err := s.GetAppend(buf[:0], key, 0, wire.WholePage)
					if err != nil || !bytes.Equal(into, tval(i)) {
						t.Errorf("GetAppend %d: %q, %v", i, into, err)
						return
					}
					fresh, err := s.Get(key, 1, 5)
					if err != nil || !bytes.Equal(fresh, into[1:6]) {
						t.Errorf("Get %d disagrees with GetAppend: %q, %v", i, fresh, err)
						return
					}
				}
			}(r)
		}
		for round := 0; round < 3; round++ {
			deleteIf(t, s, n, func(i int) bool { return i%4 == round })
			must(t, s.Compact())
		}
		close(done)
		wg.Wait()
		if st := stats(s); st.Compactions == 0 {
			t.Fatal("no segment was rewritten under the readers")
		}
		verifyLive(t, s, n, alive)
	})
}

// TestKVGetAppendAcrossSealAndRewrite is the same race against the
// segment readers were just appending to: every round's pairs go to
// the active segment, and Compact seals it and rewrites it under the
// readers.
func TestKVGetAppendAcrossSealAndRewrite(t *testing.T) {
	eachLayout(t, func(t *testing.T, ly *KVLayout) {
		path := filepath.Join(t.TempDir(), "kv.log")
		s := mustOpenKV(t, path, ly, KVOptions{})
		const rounds, per = 4, 32
		alive := func(i int) bool { return i%per%2 == 1 }
		var wg sync.WaitGroup
		for round := 0; round < rounds; round++ {
			from := round * per
			putN(t, s, from, from+per)
			done := make(chan struct{})
			for r := 0; r < 2; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					buf := make([]byte, 0, 64)
					for j := 1 + 2*r; ; j = (j + 4) % per { // the odd, surviving offsets
						select {
						case <-done:
							return
						default:
						}
						i := from + j
						got, err := s.GetAppend(buf[:0], tkey(ly, i), 0, wire.WholePage)
						if err != nil || !bytes.Equal(got, tval(i)) {
							t.Errorf("GetAppend %d across the seal: %q, %v", i, got, err)
							return
						}
					}
				}(r)
			}
			deleteIf(t, s, from+per, func(i int) bool { return i >= from && !alive(i) })
			must(t, s.Compact())
			close(done)
			wg.Wait()
			if segs, c := segmentCount(t, ly, path), stats(s).Compactions; segs != round+2 || c != uint64(round+1) {
				t.Fatalf("round %d: %d segments, %d rewrites; the active segment was not sealed and rewritten", round, segs, c)
			}
		}
		verifyLive(t, s, rounds*per, alive)
	})
}

func TestKVRollsSegmentsAndFullRescan(t *testing.T) {
	eachLayout(t, func(t *testing.T, ly *KVLayout) {
		path := filepath.Join(t.TempDir(), "kv.log")
		opts := KVOptions{SegmentBytes: 256}
		s := mustOpenKV(t, path, ly, opts)
		const n = 40
		putN(t, s, 0, n)
		deleteIf(t, s, n, func(i int) bool { return i == 7 })
		alive := func(i int) bool { return i != 7 }
		segs := segmentCount(t, ly, path)
		if segs < 4 {
			t.Fatalf("only %d segments after %d puts with a tiny roll threshold", segs, n)
		}
		verifyLive(t, s, n, alive)
		must(t, s.Close())

		// No snapshot was ever written: the tombstone alone must keep the
		// key dead across a full rescan.
		s2 := mustOpenKV(t, path, ly, opts)
		if st := s2.recStats; st.SnapshotLoaded || st.SegmentsRescanned != segs || st.RecordsReplayed != n+1 {
			t.Fatalf("recovery stats = %+v, want full rescan of %d segments", st, segs)
		}
		verifyLive(t, s2, n, alive)
	})
}

func TestKVSnapshotBoundsReopenReplay(t *testing.T) {
	eachLayout(t, func(t *testing.T, ly *KVLayout) {
		path := filepath.Join(t.TempDir(), "kv.log")
		opts := KVOptions{SegmentBytes: 512}
		s := mustOpenKV(t, path, ly, opts)
		putN(t, s, 0, 50)
		must(t, s.Snapshot())
		// The on-disk names are part of the operational contract
		// documented in the README.
		for _, name := range []string{path + ".000001", path + ".snapshot"} {
			if _, err := os.Stat(name); err != nil {
				t.Fatalf("expected %s: %v", filepath.Base(name), err)
			}
		}
		putN(t, s, 50, 60)
		must(t, s.Delete(tkey(ly, 3)))
		must(t, s.Close())

		s2 := mustOpenKV(t, path, ly, opts)
		st := s2.recStats
		// Only the tail (10 puts + 1 tombstone) replays, not all 61 records.
		if !st.SnapshotLoaded || st.SnapshotEntries != 50 || st.RecordsReplayed != 11 {
			t.Fatalf("recovery stats = %+v, want 50 snapshot entries + 11 replayed", st)
		}
		verifyLive(t, s2, 60, func(i int) bool { return i != 3 })
		// A snapshot covering everything leaves nothing to replay.
		must(t, s2.Snapshot())
		must(t, s2.Close())
		s3 := mustOpenKV(t, path, ly, opts)
		if st := s3.recStats; !st.SnapshotLoaded || st.RecordsReplayed != 0 || st.SegmentsOnDisk < 5 {
			t.Fatalf("stats after snapshot-covered reopen: %+v", st)
		}
		verifyLive(t, s3, 60, func(i int) bool { return i != 3 })
	})
}

func TestKVCompactionShrinksAndPreservesLive(t *testing.T) {
	eachLayout(t, func(t *testing.T, ly *KVLayout) {
		path := filepath.Join(t.TempDir(), "kv.log")
		opts := KVOptions{SegmentBytes: 1024}
		s := mustOpenKV(t, path, ly, opts)
		const n = 200
		putN(t, s, 0, n)
		alive := func(i int) bool { return i%4 == 0 }
		deleteIf(t, s, n, func(i int) bool { return !alive(i) })
		before := stats(s).LogBytes
		must(t, s.Compact())
		st := stats(s)
		if st.LogBytes >= before || st.Compactions == 0 || st.Snapshots != 0 {
			t.Fatalf("compaction: %d -> %d bytes, %d rewrites, %d snapshots (want none)",
				before, st.LogBytes, st.Compactions, st.Snapshots)
		}
		verifyLive(t, s, n, alive)
		must(t, s.Close())
		noSnapshotFile(t, path)
		s2 := mustOpenKV(t, path, ly, opts)
		if rs := s2.recStats; rs.SnapshotLoaded || rs.SegmentsRescanned != rs.SegmentsOnDisk {
			t.Fatalf("reopen after compaction did not rescan every segment: %+v", rs)
		}
		verifyLive(t, s2, n, alive)
	})
}

// TestKVCompactKeepsExistingSnapshotCurrent: Compact never creates the
// first snapshot, but a store that has one — written on demand, or kept
// by SnapshotEvery — gets the rewrites covered, so the reopen loads it
// and replays nothing.
func TestKVCompactKeepsExistingSnapshotCurrent(t *testing.T) {
	eachLayout(t, func(t *testing.T, ly *KVLayout) {
		// failRenamed fails the first publish past its rename: the
		// snapshot file is live though Snapshot returned an error.
		var renamedOnce atomic.Bool
		failRenamed := func(point string) error {
			if point == crashSnapRenamed && renamedOnce.CompareAndSwap(false, true) {
				return errors.New("injected failure after the rename")
			}
			return nil
		}
		for _, c := range []struct {
			name     string
			opts     KVOptions
			snapshot bool // take one on demand before the churn
		}{
			{"snapshot file", KVOptions{SegmentBytes: 1024}, true},
			// Too large an interval to fire: only Compact can write it.
			{"SnapshotEvery", KVOptions{SegmentBytes: 1024, SnapshotEvery: 1 << 20}, false},
			{"publish failed after rename", KVOptions{SegmentBytes: 1024, Fault: failRenamed}, true},
		} {
			t.Run(c.name, func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "kv.log")
				s := mustOpenKV(t, path, ly, c.opts)
				const n = 80
				putN(t, s, 0, n)
				if c.snapshot {
					if err := s.Snapshot(); (err != nil) != (c.opts.Fault != nil) {
						t.Fatalf("snapshot: %v", err)
					}
				}
				alive := func(i int) bool { return i%4 == 0 }
				deleteIf(t, s, n, func(i int) bool { return !alive(i) })
				snaps := stats(s).Snapshots
				must(t, s.Compact())
				if st := stats(s); st.Compactions == 0 || st.Snapshots != snaps+1 {
					t.Fatalf("%d rewrites, %d -> %d snapshots; want rewrites and one covering snapshot",
						st.Compactions, snaps, st.Snapshots)
				}
				must(t, s.Close())
				s2 := mustOpenKV(t, path, ly, c.opts)
				if rs := s2.recStats; !rs.SnapshotLoaded || rs.RecordsReplayed != 0 || rs.StaleRescanned != 0 {
					t.Fatalf("recovery stats = %+v, want the covering snapshot and nothing replayed", rs)
				}
				verifyLive(t, s2, n, alive)
			})
		}
	})
}

// TestKVCompactReclaimsActiveSegment: garbage that sits only in the
// active segment — every record of a store smaller than one segment —
// is reclaimed by an explicit Compact, which seals the segment first.
func TestKVCompactReclaimsActiveSegment(t *testing.T) {
	eachLayout(t, func(t *testing.T, ly *KVLayout) {
		path := filepath.Join(t.TempDir(), "kv.log")
		s := mustOpenKV(t, path, ly, KVOptions{})
		const n = 60
		putN(t, s, 0, n)
		alive := func(i int) bool { return i%3 == 0 }
		deleteIf(t, s, n, func(i int) bool { return !alive(i) })
		before := stats(s).LogBytes
		must(t, s.Compact())
		st := stats(s)
		if st.Compactions != 1 || st.LogBytes >= before {
			t.Fatalf("compaction of the active segment: %d rewrites, %d -> %d bytes", st.Compactions, before, st.LogBytes)
		}
		if segs := segmentCount(t, ly, path); segs != 2 {
			t.Fatalf("%d segments, want the sealed one and a fresh active one", segs)
		}
		// The tombstones' puts were in the rewritten segment itself, so
		// nothing but the live puts is left.
		if puts, tombs := countRecordKinds(t, ly, path); puts != n/3 || tombs != 0 {
			t.Fatalf("%d puts and %d tombstones on disk, want the %d live puts alone", puts, tombs, n/3)
		}
		verifyLive(t, s, n, alive)
		// A clean tail is left alone: nothing to seal, nothing to rewrite.
		must(t, s.Compact())
		if segs := segmentCount(t, ly, path); segs != 2 || stats(s).Compactions != 1 {
			t.Fatalf("a Compact with nothing to reclaim sealed or rewrote: %d segments, %d rewrites", segs, stats(s).Compactions)
		}
		must(t, s.Close())
		verifyLive(t, mustOpenKV(t, path, ly, KVOptions{}), n, alive)
	})
}

// TestKVBackgroundPassSealsNothing: the background pass runs after
// every tombstone batch and rewrites sealed segments only — were it to
// seal, a daemon's log would be cut into a segment per batch. An
// explicit Compact seals. With SnapshotEvery set as well (blobseerd's
// defaults) the pass snapshots and rewrites exactly as before the
// explicit seal existed: a snapshot every SnapshotEvery records, the
// segment it sealed rewritten, and a covering snapshot after it.
func TestKVBackgroundPassSealsNothing(t *testing.T) {
	eachLayout(t, func(t *testing.T, ly *KVLayout) {
		for _, c := range []struct {
			name                     string
			snapshotEvery            int
			segs, snaps, compactions int // after the loop
		}{
			{"CompactRatio", 0, 1, 0, 0},
			{"CompactRatio+SnapshotEvery", 8, 5, 8, 4},
		} {
			t.Run(c.name, func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "kv.log")
				// Options set after open: no background maintainer runs, the
				// test drives the passes itself.
				s := mustOpenKV(t, path, ly, KVOptions{})
				s.opts.CompactRatio, s.opts.SnapshotEvery = 0.5, c.snapshotEvery
				const n = 16
				for i := 0; i < n; i++ {
					putN(t, s, i, i+1)
					must(t, s.Delete(tkey(ly, i)))
					if !s.maintainPass() {
						t.Fatal("maintainPass reported closed")
					}
				}
				st := stats(s)
				if segs := segmentCount(t, ly, path); segs != c.segs || st.Snapshots != uint64(c.snaps) || st.Compactions != uint64(c.compactions) {
					t.Fatalf("after %d nudged passes: %d segments, %d snapshots, %d rewrites; want %d, %d, %d",
						n, segs, st.Snapshots, st.Compactions, c.segs, c.snaps, c.compactions)
				}
				// One more dead pair, no pass: the tail holds garbage.
				putN(t, s, n, n+1)
				must(t, s.Delete(tkey(ly, n)))
				must(t, s.Compact())
				if segs := segmentCount(t, ly, path); segs != c.segs+1 || stats(s).Compactions != uint64(c.compactions)+1 {
					t.Fatalf("explicit Compact: %d segments, %d rewrites; want %d, %d",
						segs, stats(s).Compactions, c.segs+1, c.compactions+1)
				}
				if puts, tombs := countRecordKinds(t, ly, path); puts != 0 || tombs != 0 {
					t.Fatalf("%d puts and %d tombstones left of %d deleted keys", puts, tombs, n+1)
				}
				must(t, s.Close())
				verifyLive(t, mustOpenKV(t, path, ly, KVOptions{}), n+1, func(int) bool { return false })
			})
		}
	})
}

// TestKVConcurrentTrafficAndMaintenance races puts, gets, one-phase
// and batched two-phase deletes, on-demand and background snapshots and
// compactions, and stats reads; under -race it checks that the commit
// write, the size accounting and the seal hand-off are synchronized. The
// final reopen checks nothing was lost or resurrected.
func TestKVConcurrentTrafficAndMaintenance(t *testing.T) {
	eachLayout(t, func(t *testing.T, ly *KVLayout) {
		t.Run("group", func(t *testing.T) { testKVConcurrentTraffic(t, ly) })
	})
}

func testKVConcurrentTraffic(t *testing.T, ly *KVLayout) {
	path := filepath.Join(t.TempDir(), "kv.log")
	opts := KVOptions{Sync: true, SegmentBytes: 4096, SnapshotEvery: 64, CompactRatio: 0.6}
	s := mustOpenKV(t, path, ly, opts)
	const workers, per = 8, 60
	// Worker w owns keys [w*per, (w+1)*per): multiples of 3 die one at
	// a time as they are written, i%3 == 1 die in one two-phase batch.
	alive := func(n int) bool { return n%per%3 == 2 }
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				n := w*per + i
				key := tkey(ly, n)
				if err := s.Put(key, tval(n)); err != nil {
					t.Errorf("put %d: %v", n, err)
					return
				}
				if got, err := s.Get(key, 0, wire.WholePage); err != nil || !bytes.Equal(got, tval(n)) {
					t.Errorf("get %d: %v", n, err)
					return
				}
				if i%3 == 0 {
					if err := s.Delete(key); err != nil {
						t.Errorf("delete %d: %v", n, err)
						return
					}
				}
			}
			var doomed [][]byte
			for i := 1; i < per; i += 3 {
				doomed = append(doomed, []byte(tkey(ly, w*per+i)))
			}
			if dropped, err := s.DeleteBatch(doomed); err != nil || dropped != uint64(len(doomed)) {
				t.Errorf("delete batch: dropped %d of %d, %v", dropped, len(doomed), err)
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if err := s.Snapshot(); err != nil {
				t.Errorf("snapshot: %v", err)
			}
			if err := s.Compact(); err != nil {
				t.Errorf("compact: %v", err)
			}
			stats(s)
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}
	st := stats(s)
	if st.Syncs == 0 || st.Syncs >= st.Appends {
		t.Fatalf("group commit: %d syncs for %d appends", st.Syncs, st.Appends)
	}
	must(t, s.Close())
	verifyLive(t, mustOpenKV(t, path, ly, opts), workers*per, alive)
}

func TestKVDuplicateConcurrentPuts(t *testing.T) {
	// Concurrent puts of the same key may both append a record; the
	// store must stay consistent and recovery must keep exactly one.
	eachLayout(t, func(t *testing.T, ly *KVLayout) {
		path := filepath.Join(t.TempDir(), "kv.log")
		s := mustOpenKV(t, path, ly, KVOptions{})
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					if err := s.Put(tkey(ly, i), tval(i)); err != nil {
						t.Errorf("put: %v", err)
						return
					}
				}
			}()
		}
		wg.Wait()
		verifyLive(t, s, 50, all)
		must(t, s.Close())
		verifyLive(t, mustOpenKV(t, path, ly, KVOptions{}), 50, all)
	})
}

// TestKVRefusesDamagedLogs covers every way an open must fail loudly
// rather than come up with data silently missing or foreign.
func TestKVRefusesDamagedLogs(t *testing.T) {
	eachLayout(t, func(t *testing.T, ly *KVLayout) {
		firstValue := int64(headerSize) + ly.framedSize(0)
		other := kvLayouts[0].ly // the other instantiation
		if other == ly {
			other = kvLayouts[1].ly
		}
		cases := []struct {
			name   string
			damage func(t *testing.T, path string)
			reopen *KVLayout
			errHas string
		}{
			{"segment-gap", func(t *testing.T, path string) { must(t, os.Remove(SegmentPath(path, 2))) }, ly, "missing"},
			{"payload-corruption", func(t *testing.T, path string) { flipByte(t, SegmentPath(path, 1), firstValue+2) }, ly, "crc"},
			{"bad-record-magic", func(t *testing.T, path string) { flipByte(t, SegmentPath(path, 1), headerSize) }, ly, "magic"},
			{"torn-sealed-segment", func(t *testing.T, path string) { truncateTail(t, SegmentPath(path, 1), 5) }, ly, "sealed"},
			{"foreign-format", func(t *testing.T, path string) {}, other, "segment magic"},
			{"single-file-log", func(t *testing.T, path string) {
				must(t, os.WriteFile(path, []byte("records of a pre-segmentation log"), 0o644))
			}, ly, "pre-segmentation single-file log, unsupported"},
		}
		for _, tc := range cases {
			t.Run(tc.name, func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "kv.log")
				s := mustOpenKV(t, path, ly, KVOptions{SegmentBytes: 256})
				putN(t, s, 0, 30)
				must(t, s.Close())
				tc.damage(t, path)
				s2, err := OpenKV(path, tc.reopen, KVOptions{})
				if err == nil {
					s2.Close()
					t.Fatal("open succeeded")
				}
				if !strings.Contains(err.Error(), tc.errHas) {
					t.Fatalf("open error %q does not mention %q", err, tc.errHas)
				}
			})
		}
	})
}

// TestKVCorruptSnapshotFallsBackToRescan: a snapshot that cannot be
// trusted — a flipped byte under the CRC, or a whole and well-formed
// file of format 1, which nobody is on and the decoder no longer knows —
// is ignored, and the open rebuilds the index by full rescan.
func TestKVCorruptSnapshotFallsBackToRescan(t *testing.T) {
	eachLayout(t, func(t *testing.T, ly *KVLayout) {
		for name, spoil := range map[string]func(t *testing.T, path string){
			"flipped byte": func(t *testing.T, path string) {
				flipByte(t, SnapshotPath(path), FrameHeaderSize+5)
			},
			"format 1": func(t *testing.T, path string) {
				payload, err := ly.loadSnapshotFile(osFS{}, SnapshotPath(path))
				must(t, err)
				snap, err := ly.decodeIndex(payload)
				must(t, err)
				var gens []uint64
				for _, sm := range snap.meta.Segs {
					gens = append(gens, sm.Gen)
				}
				must(t, ly.publishSnapshot(osFS{}, path, asFormat1(payload, gens...), false, nil, nil))
			},
		} {
			path := filepath.Join(t.TempDir(), "kv.log")
			opts := KVOptions{SegmentBytes: 512}
			s := mustOpenKV(t, path, ly, opts)
			putN(t, s, 0, 30)
			must(t, s.Delete(tkey(ly, 7)))
			must(t, s.Snapshot())
			must(t, s.Close())
			spoil(t, path)

			s2 := mustOpenKV(t, path, ly, opts)
			if st := s2.recStats; st.SnapshotLoaded || st.SegmentsRescanned != st.SegmentsOnDisk {
				t.Fatalf("%s: snapshot trusted: %+v", name, st)
			}
			verifyLive(t, s2, 30, func(i int) bool { return i != 7 })
		}
	})
}

// TestKVTornTailTruncated: a torn record at the tail of the highest
// segment is cut away, the valid prefix recovers, and appends land at
// the cut — also after a clean close with Sync off, whose tail SealSync
// layouts flush and others leave to the OS.
func TestKVTornTailTruncated(t *testing.T) {
	eachLayout(t, func(t *testing.T, ly *KVLayout) {
		path := filepath.Join(t.TempDir(), "kv.log")
		s := mustOpenKV(t, path, ly, KVOptions{})
		putN(t, s, 0, 2)
		must(t, s.Close())
		truncateTail(t, SegmentPath(path, 1), 5)

		s2 := mustOpenKV(t, path, ly, KVOptions{})
		verifyLive(t, s2, 2, func(i int) bool { return i == 0 })
		putN(t, s2, 2, 3)
		must(t, s2.Close())
		appendBytes(t, SegmentPath(path, 1), []byte{0xAA, 0xBB})

		s3 := mustOpenKV(t, path, ly, KVOptions{})
		verifyLive(t, s3, 3, func(i int) bool { return i != 1 })
		putN(t, s3, 3, 4)
		info, err := os.Stat(SegmentPath(path, 1))
		must(t, err)
		if got := stats(s3).LogBytes; info.Size() != got {
			t.Fatalf("file size %d vs tracked %d", info.Size(), got)
		}
	})
}

func TestKVTornRollAndAppendsIntoCoveredSegment(t *testing.T) {
	// A torn roll can demote the active segment back into the range the
	// snapshot covers; records appended there afterwards must still be
	// replayed on the next open (regression: the covered-highest segment
	// was skipped entirely, silently dropping acknowledged puts).
	eachLayout(t, func(t *testing.T, ly *KVLayout) {
		path := filepath.Join(t.TempDir(), "kv.log")
		s := mustOpenKV(t, path, ly, KVOptions{})
		putN(t, s, 0, 1)
		must(t, s.Snapshot()) // rolls to segment 2, covers segment 1
		must(t, s.Close())
		// A roll that crashed before the header was durable: a short
		// highest segment. Open removes it and makes covered segment 1
		// active again.
		must(t, os.Truncate(SegmentPath(path, 2), 3))
		s2 := mustOpenKV(t, path, ly, KVOptions{})
		if n := segmentCount(t, ly, path); n != 1 {
			t.Fatalf("torn roll left %d segments, want 1", n)
		}
		putN(t, s2, 1, 2)
		must(t, s2.Delete(tkey(ly, 0)))
		must(t, s2.Close())

		s3 := mustOpenKV(t, path, ly, KVOptions{})
		verifyLive(t, s3, 2, func(i int) bool { return i == 1 })
		must(t, s3.Close())
		// A torn tail in that covered-highest segment must also be
		// truncated so future appends do not land behind garbage.
		appendBytes(t, SegmentPath(path, 1), []byte{0xE5, 0x5E, 0x0B})
		s4 := mustOpenKV(t, path, ly, KVOptions{})
		putN(t, s4, 2, 3)
		must(t, s4.Close())
		verifyLive(t, mustOpenKV(t, path, ly, KVOptions{}), 3, func(i int) bool { return i != 0 })
	})
}

// TestKVTornRollThenRollAgain: records appended into a segment the
// snapshot covers — a torn roll made it active again — survive a reopen
// after that segment has rolled on, when it is no longer the highest;
// and a snapshot taken while the covered segment is active and empty
// still covers past it.
func TestKVTornRollThenRollAgain(t *testing.T) {
	eachLayout(t, func(t *testing.T, ly *KVLayout) {
		path := filepath.Join(t.TempDir(), "kv.log")
		opts := KVOptions{SegmentBytes: 512}
		s := mustOpenKV(t, path, ly, opts)
		putN(t, s, 0, 4)
		must(t, s.Snapshot())
		must(t, s.Close())
		must(t, os.Truncate(SegmentPath(path, uint64(segmentCount(t, ly, path))), 3))
		s2 := mustOpenKV(t, path, ly, opts)
		putN(t, s2, 4, 30) // into the covered segment, and on past its roll
		must(t, s2.Delete(tkey(ly, 1)))
		must(t, s2.Close())
		alive := func(i int) bool { return i != 1 }
		s3 := mustOpenKV(t, path, ly, opts)
		verifyLive(t, s3, 30, alive)
		must(t, s3.Snapshot())
		must(t, s3.Close())
		verifyLive(t, mustOpenKV(t, path, ly, opts), 30, alive)

		// An empty segment the snapshot covers, made active by a torn roll:
		// the snapshot after it seals it.
		path = filepath.Join(t.TempDir(), "kv.log")
		s = mustOpenKV(t, path, ly, KVOptions{})
		putN(t, s, 0, 4)
		deleteIf(t, s, 4, all)
		must(t, s.Snapshot())
		must(t, s.Compact()) // rewrites segment 1 empty, and covers it
		must(t, s.Close())
		must(t, os.Truncate(SegmentPath(path, uint64(segmentCount(t, ly, path))), 3))
		s = mustOpenKV(t, path, ly, KVOptions{})
		if s.active.size.Load() != headerSize {
			t.Fatal("the torn roll left records in the active segment: the seal rolls it anyway, and this proves nothing")
		}
		must(t, s.Snapshot())
		putN(t, s, 4, 6)
		must(t, s.Close())
		verifyLive(t, mustOpenKV(t, path, ly, KVOptions{}), 6, func(i int) bool { return i >= 4 })
	})
}

// TestKVPutAllocBudget pins what a Put costs in heap once the store's
// batch buffer is warm: the value is framed straight into it, so the
// process allocates a small fraction of the value's size, under either
// layout.
func TestKVPutAllocBudget(t *testing.T) {
	eachLayout(t, func(t *testing.T, ly *KVLayout) {
		s := mustOpenKV(t, filepath.Join(t.TempDir(), "kv.log"), ly, KVOptions{})
		const n = 200
		keys := make([]string, 20+n)
		for i := range keys {
			keys[i] = tkey(ly, i)
		}
		for _, k := range keys[:20] {
			must(t, s.Put(k, benchValue))
		}
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, k := range keys[20:] {
			must(t, s.Put(k, benchValue))
		}
		runtime.ReadMemStats(&after)
		got := float64(after.TotalAlloc-before.TotalAlloc) / n
		t.Logf("%.0f B allocated per %d-byte Put", got, len(benchValue))
		if got > 0.1*float64(len(benchValue)) {
			t.Fatalf("a Put allocates %.0f B, budget 0.1 x %d", got, len(benchValue))
		}
	})
}

// TestKVByteKeyedReads: LenBytes and GetAppendBytes are Len and
// GetAppend for a caller that holds the key as bytes, and exist so the
// lookup does not copy it into a string first — they allocate nothing,
// even for a tree-node key, past the 32 bytes a conversion converts on
// the stack.
// The index entry they find is what every stored key pays for in RAM.
func TestKVByteKeyedReads(t *testing.T) {
	if size := unsafe.Sizeof(kvEntry{}); size != 16 {
		t.Fatalf("an index entry is %d bytes, want 16", size)
	}
	eachFS(t, func(t *testing.T, ly *KVLayout, path string) {
		s := mustOpenKV(t, path, ly, KVOptions{})
		k := tkey(ly, 1)
		must(t, s.Put(k, []byte("0123456789")))
		key, missing := []byte(k), []byte(tkey(ly, 2))
		if n, ok := s.LenBytes(key); n != 10 || !ok {
			t.Fatalf("LenBytes = %d, %v", n, ok)
		}
		if n, ok := s.LenBytes(missing); n != 0 || ok {
			t.Fatalf("LenBytes of unknown key = %d, %v", n, ok)
		}
		roomy := append(make([]byte, 0, 64), "prefix:"...)
		got, err := s.GetAppendBytes(roomy, key, 2, 4)
		if err != nil || string(got) != "prefix:2345" || &got[0] != &roomy[0] {
			t.Fatalf("GetAppendBytes with room = %q, %v", got, err)
		}
		if got, err := s.GetAppendBytes(roomy, missing, 0, wire.WholePage); got != nil || !errors.Is(err, ErrNotFound) {
			t.Fatalf("GetAppendBytes of unknown key = %q, %v", got, err)
		}
		if allocs := testing.AllocsPerRun(100, func() {
			if _, ok := s.LenBytes(key); !ok {
				t.Fatal("key lost")
			}
			if _, err := s.GetAppendBytes(roomy, key, 0, wire.WholePage); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Fatalf("a byte-keyed Len and read allocate %v times, want 0", allocs)
		}
	})
}
