package seglog

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"blobseer/internal/wire"
)

// A rewrite copies the records it keeps as byte ranges of the old file.
// These tests pin what that must not lose against re-framing each
// payload: a kept record is still verified, a dropped one is never
// read, and no more than a window of the segment is ever in memory.

// TestKVRewriteRefusesCorruptKeptRecord flips one byte of a record the
// rewrite would keep: of its value, or of its key. The rewrite must fail
// — it must never launder a rotten record into a fresh generation, nor
// take a live record for garbage because its key no longer names it —
// and must fail before anything was activated: the segment file, its
// generation and the index are as they were, and the other keys still
// read. A rotten value fails the CRC when pass 2 copies the record. So
// does a rotten key where pass 1 scans records whole; where it reads
// only keys, the record is missed and the index's account of the segment
// says so (checkLocated).
func TestKVRewriteRefusesCorruptKeptRecord(t *testing.T) {
	for _, rot := range []struct {
		name       string
		at         int64 // of the flipped byte, from the value's first
		fixed, len string
	}{
		{"value", 50, "record crc mismatch", "record crc mismatch"},
		{"key", -1, "records found there under their keys", "record crc mismatch"},
	} {
		t.Run(rot.name, func(t *testing.T) {
			eachFraming(t, func(t *testing.T, ly *KVLayout) {
				path := filepath.Join(t.TempDir(), "kv.log")
				s := mustOpenKV(t, path, ly, KVOptions{})
				const n, rotten = 40, 17
				odd := func(i int) bool { return i%2 == 1 }
				val := func(i int) []byte { return bytes.Repeat([]byte{byte(i + 1)}, 100) }
				for i := 0; i < n; i++ {
					must(t, s.Put(tkey(ly, i), val(i)))
				}
				rollForTest(t, s)
				deleteIf(t, s, n, func(i int) bool { return !odd(i) })

				before, ok := s.lookup(tkey(ly, rotten))
				if !ok || before.seg != 1 {
					t.Fatalf("key %d not in the sealed segment: %+v", rotten, before)
				}
				seg := SegmentPath(path, 1)
				flipByte(t, seg, before.off+rot.at)
				raw, err := os.ReadFile(seg)
				must(t, err)

				want := rot.fixed
				if ly.KeyLen == 0 {
					want = rot.len
				}
				err = s.Compact()
				if err == nil || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), "log corrupted") {
					t.Fatalf("Compact over a corrupt kept record = %v, want %q", err, want)
				}
				if now, err := os.ReadFile(seg); err != nil || !bytes.Equal(now, raw) {
					t.Fatalf("failed rewrite touched the segment file (err %v)", err)
				}
				if gen := s.segment(1).gen; gen != 1 {
					t.Fatalf("failed rewrite left generation %d, want 1", gen)
				}
				if after, _ := s.lookup(tkey(ly, rotten)); after != before {
					t.Fatalf("failed rewrite moved the index entry: %+v -> %+v", before, after)
				}
				if st := stats(s); st.Compactions != 0 || st.Keys != n/2 {
					t.Fatalf("after failed rewrite: %+v", st)
				}
				for i := 0; i < n; i++ {
					got, err := s.Get(tkey(ly, i), 0, wire.WholePage)
					switch {
					case !odd(i):
						if !errors.Is(err, ErrNotFound) {
							t.Fatalf("deleted key %d: %v", i, err)
						}
					case i != rotten && (err != nil || !bytes.Equal(got, val(i))):
						t.Fatalf("key %d beside the corrupt record: %v", i, err)
					}
				}
			})
		})
	}
}

// TestKVRewriteRefusesCorruptTombstone flips a key byte of a tombstone
// in a segment that is rewritten for hygiene (the rewrite of segment 1
// drops the deleted puts and flags it). Under the wrong key the
// tombstone would find no earlier put to suppress and be dropped, and a
// full rescan would resurrect the key it really deleted; a tombstone is
// no longer than the prefix pass 1 reads, so it is CRC-checked there
// under either key framing.
func TestKVRewriteRefusesCorruptTombstone(t *testing.T) {
	eachFraming(t, func(t *testing.T, ly *KVLayout) {
		path := filepath.Join(t.TempDir(), "kv.log")
		s := mustOpenKV(t, path, ly, KVOptions{})
		const n = 8
		for i := 0; i < n; i++ {
			must(t, s.Put(tkey(ly, i), tval(i)))
		}
		rollForTest(t, s)
		deleteIf(t, s, n, func(i int) bool { return i < 2 }) // segment 2: two tombstones
		rollForTest(t, s)
		flipByte(t, SegmentPath(path, 2), HeaderSize+ly.framedSize(len(tkey(ly, 0)), 0)-1)

		err := s.Compact()
		if err == nil || !strings.Contains(err.Error(), "record crc mismatch") {
			t.Fatalf("Compact over a corrupt tombstone = %v, want a record crc mismatch", err)
		}
		if gen := s.segment(2).gen; gen != 2 {
			t.Fatalf("failed rewrite left segment 2 at generation %d, want 2", gen)
		}
	})
}

// TestKVRewriteNeverReadsDroppedBodies flips a value byte of a record
// the rewrite drops. With fixed-size keys pass 1 reads only each
// record's kind and key, so the rewrite neither sees nor carries the
// damage: it succeeds, and what is left passes a full CRC-checked
// rescan. Length-prefixed keys belong to small pairs that pass 1 scans
// whole, so there the same damage fails the rewrite.
func TestKVRewriteNeverReadsDroppedBodies(t *testing.T) {
	eachFraming(t, func(t *testing.T, ly *KVLayout) {
		path := filepath.Join(t.TempDir(), "kv.log")
		s := mustOpenKV(t, path, ly, KVOptions{})
		const n, rotten = 40, 18
		alive := func(i int) bool { return i%2 == 1 }
		for i := 0; i < n; i++ {
			must(t, s.Put(tkey(ly, i), tval(i)))
		}
		rollForTest(t, s)
		e, _ := s.lookup(tkey(ly, rotten))
		deleteIf(t, s, n, func(i int) bool { return !alive(i) })
		flipByte(t, SegmentPath(path, 1), e.off+int64(e.vlen)/2)

		err := s.Compact()
		if ly.KeyLen == 0 {
			if err == nil || !strings.Contains(err.Error(), "record crc mismatch") {
				t.Fatalf("whole-record pass 1 over a corrupt record = %v, want a record crc mismatch", err)
			}
			return
		}
		must(t, err)
		verifyLive(t, s, n, alive)
		must(t, s.Close())
		// The store keeps no snapshot, so the reopen is the full rescan.
		noSnapshotFile(t, path)
		s2 := mustOpenKV(t, path, ly, KVOptions{})
		if rs := s2.recStats; rs.SnapshotLoaded || rs.SegmentsRescanned != rs.SegmentsOnDisk {
			t.Fatalf("reopen did not rescan everything: %+v", rs)
		}
		verifyLive(t, s2, n, alive)
		if puts, _ := countRecordKinds(t, ly, path); puts != n/2 {
			t.Fatalf("%d put records left on disk, want the %d live ones", puts, n/2)
		}
	})
}

// TestKVRewriteAllocBudget pins what moving a segment costs in heap:
// an 8 MiB segment of pages, half of them deleted in blocks so the kept
// runs are each longer than a window, is rewritten through that one
// window, so the whole Compact (both passes, the covering snapshot)
// allocates a fraction of what it moves, under either key framing.
func TestKVRewriteAllocBudget(t *testing.T) {
	eachFraming(t, func(t *testing.T, ly *KVLayout) {
		s := mustOpenKV(t, filepath.Join(t.TempDir(), "kv.log"), ly, KVOptions{})
		const n = 128 // x 64 KiB
		for i := 0; i < n; i++ {
			must(t, s.Put(tkey(ly, i), benchValue))
		}
		rollForTest(t, s)
		deleteIf(t, s, n, func(i int) bool { return i%64 < 32 })
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		must(t, s.Compact())
		runtime.ReadMemStats(&after)
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("%d B allocated to keep %d of %d B", got, n/2*len(benchValue), n*len(benchValue))
		if got >= 2<<20 {
			t.Fatalf("compacting an 8 MiB segment allocated %d B, budget 2 MiB", got)
		}
		if st := stats(s); st.Compactions != 1 || st.Keys != n/2 {
			t.Fatalf("after compaction: %+v", st)
		}
	})
}

// TestKVRewriteMovesRecordsOfAnySize keeps records smaller than, about
// as large as and larger than a window, alone and in runs, and checks
// they arrive byte-identical — in the live store and in a reopen that
// rescans the rewritten file — and that the one record larger than
// kvBatchRetain does not stay pinned in the store's window afterwards.
func TestKVRewriteMovesRecordsOfAnySize(t *testing.T) {
	sizes := []int{100, 0, ioWindow + 3, 10, 600_000, 600_000, 3, kvBatchRetain + 1, 50_000, 7}
	val := func(i int) []byte {
		v := make([]byte, sizes[i])
		for j := range v {
			v[j] = byte(i + j*13)
		}
		return v
	}
	alive := func(i int) bool { return i != 3 && i != 8 }
	check := func(s *KV) {
		t.Helper()
		for i := range sizes {
			got, err := s.Get(tkey(s.ly, i), 0, wire.WholePage)
			if !alive(i) {
				if !errors.Is(err, ErrNotFound) {
					t.Fatalf("deleted key %d: %v", i, err)
				}
			} else if err != nil || !bytes.Equal(got, val(i)) {
				t.Fatalf("key %d (%d bytes) not byte-identical after the rewrite: %v", i, sizes[i], err)
			}
		}
	}
	eachFraming(t, func(t *testing.T, ly *KVLayout) {
		path := filepath.Join(t.TempDir(), "kv.log")
		s := mustOpenKV(t, path, ly, KVOptions{})
		for i := range sizes {
			must(t, s.Put(tkey(ly, i), val(i)))
		}
		rollForTest(t, s)
		deleteIf(t, s, len(sizes), func(i int) bool { return !alive(i) })
		must(t, s.Compact())
		if st := stats(s); st.Compactions != 1 {
			t.Fatalf("%d rewrites, want 1", st.Compactions)
		}
		if cap(s.ioBuf) > kvBatchRetain {
			t.Fatalf("a %d-byte window outlived the compaction", cap(s.ioBuf))
		}
		check(s)
		must(t, s.Close())
		noSnapshotFile(t, path)
		s2 := mustOpenKV(t, path, ly, KVOptions{})
		if rs := s2.recStats; rs.SnapshotLoaded || rs.SegmentsRescanned != rs.SegmentsOnDisk {
			t.Fatalf("reopen did not rescan everything: %+v", rs)
		}
		check(s2)
	})
}

// noSnapshotFile asserts that Compact left no snapshot file behind for
// a store that never kept one.
func noSnapshotFile(t *testing.T, path string) {
	t.Helper()
	if _, err := os.Stat(SnapshotPath(path)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("a store that keeps no snapshot has a snapshot file after Compact: %v", err)
	}
}
