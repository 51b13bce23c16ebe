package seglog

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"blobseer/internal/bufpool"
	"blobseer/internal/wire"
)

var collide = flag.Bool("collide", false, "run every test with the index's key hash narrowed to 2 bits, so that keys collide all the time")

// TestMain runs the package's tests with recycled record slabs
// poisoned (see bufpool.Pool), and benchmarks unpoisoned; with -collide
// every key hash is narrowed.
func TestMain(m *testing.M) {
	flag.Parse()
	if *collide {
		hashMask = collideMask
	}
	if flag.Lookup("test.bench").Value.String() == "" {
		bufpool.PoisonReleased(true)
	}
	os.Exit(m.Run())
}

// collideMask narrows the key hash to four values.
const collideMask = 3

// TestCollidingKeys narrows the index's hash to 2 bits, so that every
// key shares its hash with a quarter of the others, and holds the store
// to the answers it gives under a hash that never collides: distinct
// colliding keys all land, whether they come in one batch or one by
// one; a re-put is lost and the first record wins; an absent key that
// collides with stored ones is absent to Get, GetAppendBytes, Len and
// LenBytes, and Delete logs nothing for it; deleting one key of a
// colliding set — the one holding the hash, or one beside it, named
// twice in a batch — leaves the others readable; and a compaction, a
// Snapshot, a reopen from the snapshot and a reopen by full rescan each
// keep all of it.
func TestCollidingKeys(t *testing.T) {
	mask := hashMask
	hashMask = collideMask
	t.Cleanup(func() { hashMask = mask })
	eachLayout(t, func(t *testing.T, ly *KVLayout) {
		// byHash[h] are the first six keys of hash h.
		const perHash = 6
		var byHash [collideMask + 1][]int
		for i := 0; ; i++ {
			if h := keyHash(tkey(ly, i)); len(byHash[h]) < perHash {
				byHash[h] = append(byHash[h], i)
			}
			if !slices.ContainsFunc(byHash[:], func(keys []int) bool { return len(keys) < perHash }) {
				break
			}
		}
		col := func(j int) []int { // key j of every hash
			var keys []int
			for _, ks := range byHash {
				keys = append(keys, ks[j])
			}
			return keys
		}
		path := filepath.Join(t.TempDir(), "kv.log")
		s := mustOpenKV(t, path, ly, KVOptions{})
		live := make(map[int]bool)
		check := func(what string) {
			t.Helper()
			checkColliding(t, s, what, byHash[:], live)
		}

		// Keys 0 and 1 of every hash in one batch, key 0 named again: the
		// first takes the hash, the second collides with a record of its
		// own batch, the third mention is a duplicate of one.
		first := append(col(0), col(1)...)
		batch := append(slices.Clone(first), col(0)...)
		lost, err := s.PutBatch(bkeys(ly, batch...), tvals(batch...))
		if want := []int{8, 9, 10, 11}; err != nil || !slices.Equal(lost, want) {
			t.Fatalf("PutBatch of colliding keys lost %v (%v), want %v", lost, err, want)
		}
		for _, i := range first {
			live[i] = true
		}
		// Key 2 alone, its hash held by a record of an earlier batch.
		for _, i := range col(2) {
			must(t, s.Put(tkey(ly, i), tval(i)))
			live[i] = true
		}
		check("after the puts")

		// Re-puts: lost, and the first record wins.
		again := append(col(1), col(2)...)
		other := make([][]byte, len(again))
		for j := range other {
			other[j] = []byte("another value")
		}
		if lost, err := s.PutBatch(bkeys(ly, again...), other); err != nil || len(lost) != len(again) {
			t.Fatalf("re-put of stored colliding keys lost %v of %d (%v)", lost, len(again), err)
		}
		for _, i := range col(0) {
			must(t, s.Put(tkey(ly, i), []byte("another value")))
		}
		check("after the re-puts")

		// Absent keys colliding with stored ones: Delete logs nothing.
		appends := stats(s).Appends
		for _, i := range col(3) {
			must(t, s.Delete(tkey(ly, i)))
		}
		if dropped, err := s.DeleteBatch(bkeys(ly, col(4)...)); dropped != 0 || err != nil {
			t.Fatalf("DeleteBatch of absent colliding keys dropped %d (%v)", dropped, err)
		}
		if got := stats(s).Appends; got != appends {
			t.Fatalf("deletes of absent colliding keys logged %d records", got-appends)
		}

		// The hash's holder goes for hashes 0 and 1; a key beside the
		// holder goes for hashes 2 and 3, named twice in one batch.
		for _, keys := range byHash[:2] {
			must(t, s.Delete(tkey(ly, keys[0])))
			delete(live, keys[0])
		}
		var twice []int
		for _, keys := range byHash[2:] {
			twice = append(twice, keys[1], keys[1])
			delete(live, keys[1])
		}
		if dropped, err := s.DeleteBatch(bkeys(ly, twice...)); dropped != 2 || err != nil {
			t.Fatalf("DeleteBatch of two colliding keys, each named twice, dropped %d (%v), want 2", dropped, err)
		}
		check("after the deletes")

		// Key 3 of hashes 0 and 1 takes the freed hash, beside the keys
		// still indexed by key; of hashes 2 and 3, it collides.
		for _, i := range col(3) {
			must(t, s.Put(tkey(ly, i), tval(i)))
			live[i] = true
		}
		check("after the puts into freed hashes")

		rollForTest(t, s)
		must(t, s.Compact())
		if stats(s).Compactions == 0 {
			t.Fatal("nothing was compacted")
		}
		check("after Compact")
		must(t, s.Snapshot())
		check("after Snapshot")
		must(t, s.Close())
		s = mustOpenKV(t, path, ly, KVOptions{})
		if !s.recStats.SnapshotLoaded {
			t.Fatal("the reopen loaded no snapshot")
		}
		check("reopened from the snapshot")
		must(t, s.Close())
		must(t, os.Remove(SnapshotPath(path)))
		s = mustOpenKV(t, path, ly, KVOptions{})
		if s.recStats.SnapshotLoaded {
			t.Fatal("the reopen loaded a snapshot")
		}
		check("reopened by full rescan")

		// The reopened store still tells a duplicate from a collision.
		lost, err = s.PutBatch(bkeys(ly, col(5)[0], byHash[0][1]), tvals(col(5)[0], byHash[0][1]))
		if err != nil || !slices.Equal(lost, []int{1}) {
			t.Fatalf("after the rescan, a put of a new colliding key and a re-put lost %v (%v), want [1]", lost, err)
		}
		live[col(5)[0]] = true
		check("after a put into the reopened store")
	})
}

func tvals(is ...int) [][]byte {
	values := make([][]byte, len(is))
	for j, i := range is {
		values[j] = tval(i)
	}
	return values
}

// checkColliding holds every key of byHash against live: a stored key
// reads tval whole and in part, with room for its key and without; an
// absent one is absent to every read.
func checkColliding(t *testing.T, s *KV, what string, byHash [][]int, live map[int]bool) {
	t.Helper()
	for _, keys := range byHash {
		for _, i := range keys {
			key := tkey(s.ly, i)
			what := fmt.Sprintf("%s: key %d (hash %d)", what, i, keyHash(key))
			roomy := make([]byte, 0, 256)
			whole, errWhole := s.Get(key, 0, wire.WholePage)
			part, errPart := s.Get(key, 1, 4)
			oneRead, errOne := s.GetAppendBytes(roomy, []byte(key), 0, wire.WholePage)
			n, ok := s.Len(key)
			nb, okb := s.LenBytes([]byte(key))
			if !live[i] {
				for _, err := range []error{errWhole, errPart, errOne} {
					if !errors.Is(err, ErrNotFound) {
						t.Fatalf("%s: absent, read %v", what, err)
					}
				}
				if _, err := s.Get(key, 1<<20, 1); !errors.Is(err, ErrNotFound) {
					t.Fatalf("%s: absent, a read past any value's end = %v", what, err)
				}
				if ok || okb {
					t.Fatalf("%s: absent, Len %d %v, LenBytes %d %v", what, n, ok, nb, okb)
				}
				continue
			}
			want := tval(i)
			if errWhole != nil || !bytes.Equal(whole, want) || errPart != nil || !bytes.Equal(part, want[1:5]) ||
				errOne != nil || !bytes.Equal(oneRead, want) {
				t.Fatalf("%s: read %q %v, %q %v, %q %v; want %q", what, whole, errWhole, part, errPart, oneRead, errOne, want)
			}
			if !ok || !okb || n != uint32(len(want)) || nb != n {
				t.Fatalf("%s: Len %d %v, LenBytes %d %v, want %d", what, n, ok, nb, okb, len(want))
			}
		}
	}
	if got := stats(s).Keys; got != uint64(len(live)) {
		t.Fatalf("%s: %d keys stored, want %d", what, got, len(live))
	}
}

// indexBudget is the most heap the index may hold per key, in either
// shape.
const indexBudget = 64

// TestKVIndexHeapPerKey: the index keeps no key, so what a key costs in
// RAM is its entry and its hash's slot, whatever the key's size — the
// log holds the key itself. 2^17 keys of either bench shape hold at most
// indexBudget bytes of heap per key.
func TestKVIndexHeapPerKey(t *testing.T) {
	if raceEnabled {
		t.Skip("heap budgets are meaningless under the race detector")
	}
	if *collide {
		t.Skip("under -collide all but four keys are indexed by the key itself")
	}
	for _, sh := range benchShapes {
		name := strings.Split(sh.name, "/")[0]
		t.Run(name, func(t *testing.T) {
			_, perKey := openIndexed(t, sh.ly)
			t.Logf("%s: the index of %d keys holds %.1f B/key", name, indexKeys, perKey)
			if perKey > indexBudget {
				t.Fatalf("%s: the index holds %.1f B/key, budget %d", name, perKey, indexBudget)
			}
		})
	}
}

// countingFile counts the preads of one segment file.
type countingFile struct {
	file
	reads *atomic.Int64
}

func (f countingFile) ReadAt(p []byte, off int64) (int, error) {
	f.reads.Add(1)
	return f.file.ReadAt(p, off)
}

// countReads makes every segment file of s count its preads into the
// counter it returns.
func countReads(s *KV) *atomic.Int64 {
	reads := new(atomic.Int64)
	s.segMu.RLock()
	defer s.segMu.RUnlock()
	for _, seg := range s.segs {
		seg.mu.Lock()
		seg.f = countingFile{seg.f, reads}
		seg.mu.Unlock()
	}
	return reads
}

// TestKVReadsPerLookup counts what the two readers' patterns cost at the
// file seam now that a lookup checks its key on the record. A metadata
// node's MULTI_GET (dht's getBatch: one buffer sized from LenHint with
// KeyLen bytes of room per key, a GetAppendBytes per key) reads each
// value and its key in one pread: k preads for k stored keys. A page
// GET (pagestore's Get: a buffer of the range's size, one GetAppend)
// reads the page's key and then the range: 2 preads at most, whole page
// or part.
func TestKVReadsPerLookup(t *testing.T) {
	eachFS(t, func(t *testing.T, ly *KVLayout, path string) {
		s := mustOpenKV(t, path, ly, KVOptions{})
		const k = 16
		keys := bkeys(ly, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15)
		values := make([][]byte, k)
		for i := range values {
			values[i] = benchValue[:75+i]
		}
		if _, err := s.PutBatch(keys, values); err != nil {
			t.Fatal(err)
		}
		page := tkey(ly, k)
		must(t, s.Put(page, benchValue))
		reads := countReads(s)

		total := 0
		for _, key := range keys {
			if n, ok := s.LenHint(key); ok {
				total += int(n) + ly.KeyLen
			}
		}
		buf := make([]byte, 0, total)
		for i, key := range keys {
			v, err := s.GetAppendBytes(buf[len(buf):], key, 0, wire.WholePage)
			if err != nil || !bytes.Equal(v, values[i]) || &v[:1][0] != &buf[len(buf):][:1][0] {
				t.Fatalf("key %d: read %d bytes (%v), want its value in the sized buffer", i, len(v), err)
			}
			buf = buf[:len(buf)+len(v)]
		}
		if got := reads.Swap(0); got != k {
			t.Fatalf("a MULTI_GET of %d stored keys took %d preads, want %d", k, got, k)
		}

		for _, r := range []struct{ off, length uint32 }{{0, wire.WholePage}, {4096, 4096}, {0, 4096}} {
			n, ok := s.LenHint([]byte(page))
			if !ok {
				t.Fatal("the page has no hint")
			}
			v, err := s.GetAppend(make([]byte, 0, min(n, r.length)), page, r.off, r.length)
			if want := benchValue[r.off:][:len(v)]; err != nil || !bytes.Equal(v, want) {
				t.Fatalf("page [%d,+%d): %d bytes (%v)", r.off, r.length, len(v), err)
			}
			if got := reads.Swap(0); got > 2 {
				t.Fatalf("a page GET of [%d,+%d) took %d preads, want at most 2", r.off, r.length, got)
			}
		}
	})
}
