package seglog

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"blobseer/internal/wire"
)

// countRecordKinds scans every segment file on disk and tallies put and
// tombstone records — the ground truth the hygiene assertions run on.
func countRecordKinds(t *testing.T, ly *KVLayout, base string) (puts, tombs int) {
	t.Helper()
	for idx := 1; idx <= segmentCount(t, ly, base); idx++ {
		path := SegmentPath(base, uint64(idx))
		f, err := os.Open(path)
		must(t, err)
		_, err = ly.readHeader(osFile{f}, path)
		must(t, err)
		_, err = ly.scan(new([]byte), &kvSegment{f: osFile{f}}, path, false, func(r kvRecord) error {
			if r.kind == kvPut {
				puts++
			} else {
				tombs++
			}
			return nil
		})
		must(t, err)
		f.Close()
	}
	return puts, tombs
}

// rollForTest seals the active segment so the records just written are
// eligible for compaction (the active segment never is).
func rollForTest(t *testing.T, s *KV) {
	t.Helper()
	s.wmu.Lock()
	err := s.rollLocked()
	s.wmu.Unlock()
	must(t, err)
}

// TestKVCompactionConvergesChurnedLogToLiveSet pins the generational
// tombstone-hygiene cascade: after heavy churn, one full compaction
// pass converges the log to exactly its live set — every dead put gone,
// and every tombstone too, because once the puts it suppressed are
// dropped from earlier segments nothing is left to resurrect its key.
// Without the cascade, tombstones of long-dead keys ride along forever.
func TestKVCompactionConvergesChurnedLogToLiveSet(t *testing.T) {
	eachLayout(t, func(t *testing.T, ly *KVLayout) {
		path := filepath.Join(t.TempDir(), "kv.log")
		opts := KVOptions{SegmentBytes: 512}
		s := mustOpenKV(t, path, ly, opts)
		const n = 120
		putN(t, s, 0, n)
		alive := func(i int) bool { return i%6 == 0 }
		deleteIf(t, s, n, func(i int) bool { return !alive(i) })
		rollForTest(t, s) // seal the tombstone tail

		must(t, s.Compact())
		if stats(s).Compactions == 0 {
			t.Fatal("churned log compacted nothing")
		}
		puts, tombs := countRecordKinds(t, ly, path)
		if tombs != 0 {
			t.Fatalf("%d tombstones survive a full compaction of a churned log; hygiene did not converge", tombs)
		}
		if puts != n/6 {
			t.Fatalf("%d put records on disk, want exactly the %d live keys", puts, n/6)
		}
		// Converged does not mean lossy, across the rewrite and a restart.
		verifyLive(t, s, n, alive)
		must(t, s.Close())
		verifyLive(t, mustOpenKV(t, path, ly, opts), n, alive)
	})
}

// TestKVSnapshotSeededReopenNoSpuriousRewrite pins the v2 snapshot fix:
// index snapshots persist per-segment tombstone bytes, so a
// snapshot-seeded recovery sees the same reclaim estimates the store
// had before the restart. The fixture builds the exact shape the old v1
// undercount mis-judged — a sealed tombstone-heavy segment (live ratio
// under CompactRatio) with nothing actually reclaimable — and asserts a
// post-reopen compaction stays a no-op instead of pointlessly rewriting
// the segment to byte-identical contents.
func TestKVSnapshotSeededReopenNoSpuriousRewrite(t *testing.T) {
	eachLayout(t, func(t *testing.T, ly *KVLayout) {
		path := filepath.Join(t.TempDir(), "kv.log")
		// CompactRatio is set after open so no background compactor runs:
		// the test drives compaction itself.
		opts := KVOptions{SegmentBytes: 1 << 20}
		const ratio = 0.25
		s := mustOpenKV(t, path, ly, opts)
		s.opts.CompactRatio = ratio

		// Segment 1: one big live value plus ten small soon-dead ones. The
		// big one keeps the live ratio above CompactRatio, so the dead puts
		// stay (the ratio gate protects mostly-live segments from rewrite
		// churn) — which in turn keeps the tombstones in segment 2
		// load-bearing.
		big := bytes.Repeat([]byte{0xAB}, 1200)
		must(t, s.Put(tkey(ly, 1000), big))
		for i := 0; i < 10; i++ {
			must(t, s.Put(tkey(ly, i), bytes.Repeat([]byte{byte(i)}, 20)))
		}
		rollForTest(t, s)
		// Segment 2: the ten tombstones plus one small live put — tombstone
		// bytes dominate, live ratio far below CompactRatio.
		for i := 0; i < 10; i++ {
			must(t, s.Delete(tkey(ly, i)))
		}
		must(t, s.Put(tkey(ly, 1001), bytes.Repeat([]byte{0xCD}, 20)))
		rollForTest(t, s)

		// Steady state: nothing is reclaimable at this ratio.
		must(t, s.Compact())
		if c := stats(s).Compactions; c != 0 {
			t.Fatalf("fixture not steady before snapshot: %d rewrites", c)
		}
		// The fixture really has the shape the bug needs: a sealed segment
		// whose tombstone bytes put its reclaim at zero while its live
		// ratio is below the threshold.
		seg := s.segment(2)
		payload, tomb, live := seg.size.Load()-HeaderSize, seg.tombBytes.Load(), seg.liveBytes.Load()
		if tomb == 0 || payload-live-tomb != 0 || float64(live)/float64(payload) >= ratio {
			t.Fatalf("fixture built no tombstone-heavy zero-reclaim segment (payload %d live %d tomb %d)", payload, live, tomb)
		}
		must(t, s.Snapshot())
		_, tombsBefore := countRecordKinds(t, ly, path)
		must(t, s.Close())

		s2 := mustOpenKV(t, path, ly, opts)
		s2.opts.CompactRatio = ratio
		if !s2.recStats.SnapshotLoaded {
			t.Fatalf("snapshot not loaded: %+v", s2.recStats)
		}
		must(t, s2.Compact())
		if c := stats(s2).Compactions; c != 0 {
			t.Fatalf("snapshot-seeded reopen triggered %d spurious rewrites of the tombstone-heavy segment", c)
		}
		if _, tombsAfter := countRecordKinds(t, ly, path); tombsAfter != tombsBefore || tombsBefore != 10 {
			t.Fatalf("tombstones on disk changed %d -> %d across a no-op compaction", tombsBefore, tombsAfter)
		}
		// The tombstones are still doing their job.
		for i := 0; i < 10; i++ {
			if has(s2, tkey(ly, i)) {
				t.Fatalf("deleted key %d resurrected after seeded reopen", i)
			}
		}
		got, err := s2.Get(tkey(ly, 1000), 0, wire.WholePage)
		if err != nil || !bytes.Equal(got, big) {
			t.Fatalf("big live value after reopen: %v", err)
		}
	})
}
