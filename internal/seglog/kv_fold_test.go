package seglog

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
)

var (
	kvFoldSeed  = flag.Int64("kvfold-seed", 0, "replay this one seed of TestKVFoldEqualsLive (0 = the default budget)")
	kvFoldSeeds = flag.Int("kvfold-seeds", 12, "seeds TestKVFoldEqualsLive runs by default, per layout")
)

// TestKVFoldEqualsLive is the property the snapshotter's fold exists
// for: drive a store through a random schedule of puts, deletes, batches
// of both, Compact, Snapshot, reopens (some after a torn roll) and bursts
// of concurrent traffic racing maintenance, and after every quiesced
// Snapshot the snapshot file — fold(previous snapshot, sealed segments),
// read off the disk — decodes to exactly the live index, per-segment
// generations and counters included, and the store's pairs are the
// model's; at every reopen the reopened store's pairs are the model's
// too. A failing seed prints how to replay it.
func TestKVFoldEqualsLive(t *testing.T) {
	seeds := make([]int64, 0, *kvFoldSeeds)
	if *kvFoldSeed != 0 {
		seeds = append(seeds, *kvFoldSeed)
	}
	for s := int64(1); len(seeds) < cap(seeds) && *kvFoldSeed == 0; s++ {
		seeds = append(seeds, s)
	}
	eachLayout(t, func(t *testing.T, ly *KVLayout) {
		for _, seed := range seeds {
			t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
				runKVFoldSchedule(t, ly, seed, 120)
			})
		}
	})
}

// kvFoldRun is one schedule in progress: the store under test and the
// model of what it must hold. Keys are tkey(i) with value tval(i); a
// deleted key is never put again.
type kvFoldRun struct {
	t    *testing.T
	ly   *KVLayout
	rng  *rand.Rand
	path string
	s    *KV
	next int          // the next fresh key
	live map[int]bool // the model: keys stored now
	at   string       // the last check, for a failure's report
}

func runKVFoldSchedule(t *testing.T, ly *KVLayout, seed int64, steps int) {
	r := &kvFoldRun{
		t:    t,
		ly:   ly,
		rng:  rand.New(rand.NewSource(seed)),
		path: filepath.Join(t.TempDir(), "kv.log"),
		live: make(map[int]bool),
	}
	r.open()
	defer func() {
		r.s.Close()
		if t.Failed() {
			t.Logf("last check: %s; replay: go test ./internal/seglog -run 'TestKVFoldEqualsLive' -kvfold-seed=%d", r.at, seed)
		}
	}()
	for i := 0; i < steps && !t.Failed(); i++ {
		r.step(i)
	}
	r.snapshot("at the end")
	r.reopen(false, "at the end")
}

// opts keeps a handful of records per segment, and no background
// maintainer: every Snapshot and Compact is the schedule's.
func (r *kvFoldRun) open() {
	s, err := OpenKV(r.path, r.ly, KVOptions{SegmentBytes: 384})
	if err != nil {
		r.t.Fatalf("open: %v", err)
	}
	r.s = s
}

func (r *kvFoldRun) step(i int) {
	t, s := r.t, r.s
	what := fmt.Sprintf("step %d", i)
	switch n := r.rng.Intn(20); {
	case n < 6:
		k := r.fresh()
		if r.rng.Intn(4) == 0 {
			if old, ok := r.someLive(); ok {
				k = old // a re-put of a stored key: a no-op
			}
		}
		must(t, s.Put(tkey(r.ly, k), tval(k)))
		r.live[k] = true
	case n < 9:
		if k, ok := r.someLive(); ok {
			must(t, s.Delete(tkey(r.ly, k)))
			delete(r.live, k)
		}
	case n < 11:
		var is []int
		for j := 1 + r.rng.Intn(6); j > 0; j-- {
			is = append(is, r.fresh())
		}
		is = append(is, is[r.rng.Intn(len(is))]) // logged twice, indexed once
		values := make([][]byte, len(is))
		for j, k := range is {
			values[j] = tval(k)
			r.live[k] = true
		}
		_, err := s.PutBatch(bkeys(r.ly, is...), values)
		must(t, err)
	case n < 13:
		var is []int
		for j := r.rng.Intn(5); j > 0; j-- {
			if k, ok := r.someLive(); ok {
				is = append(is, k)
				delete(r.live, k)
			}
		}
		_, err := s.DeleteBatch(bkeys(r.ly, is...))
		must(t, err)
	case n < 15:
		must(t, s.Compact())
	case n < 17:
		r.snapshot(what)
	case n < 18:
		r.reopen(r.rng.Intn(2) == 0, what)
	default:
		r.burst()
	}
}

func (r *kvFoldRun) fresh() int {
	r.next++
	return r.next - 1
}

// someLive picks a stored key, deterministically for the seed.
func (r *kvFoldRun) someLive() (int, bool) {
	if len(r.live) == 0 {
		return 0, false
	}
	for j := r.rng.Intn(r.next); ; j = (j + 1) % r.next {
		if r.live[j] {
			return j, true
		}
	}
}

// burst races four writers — each puts fresh keys and deletes every
// other one as it goes — against a Snapshot and a Compact, so seals go
// through the leader's hand-off.
func (r *kvFoldRun) burst() {
	const writers, each = 4, 6
	base := r.next
	r.next += writers * each
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < each; j++ {
				k := base + w*each + j
				if err := r.s.Put(tkey(r.ly, k), tval(k)); err != nil {
					r.t.Errorf("burst put %d: %v", k, err)
					return
				}
				if j%2 == 1 {
					if err := r.s.Delete(tkey(r.ly, k)); err != nil {
						r.t.Errorf("burst delete %d: %v", k, err)
						return
					}
				}
				runtime.Gosched()
			}
		}(w)
	}
	for _, op := range []func() error{r.s.Snapshot, r.s.Compact} {
		if err := op(); err != nil {
			r.t.Errorf("maintenance racing a burst: %v", err)
		}
	}
	wg.Wait()
	for k := base; k < r.next; k++ {
		if (k-base)%each%2 == 0 {
			r.live[k] = true
		}
	}
}

// snapshot takes a quiesced Snapshot and holds the file it published
// against the live index: the same entries, and for every covered
// segment the same generation and counters. With no traffic the seal
// leaves the active segment empty, so the snapshot covers every record.
func (r *kvFoldRun) snapshot(what string) {
	t, s := r.t, r.s
	r.at = what
	must(t, s.Snapshot())
	payload, err := r.ly.loadSnapshotFile(osFS{}, SnapshotPath(r.path))
	if err != nil || payload == nil {
		t.Fatalf("%s: snapshot file: %v", what, err)
	}
	snap, err := r.ly.decodeIndex(payload)
	if err != nil {
		t.Fatalf("%s: decoding the snapshot: %v", what, err)
	}
	live := make(map[string]kvEntry)
	for i := range s.stripes {
		for k, e := range s.stripes[i].m {
			live[k] = e
		}
	}
	if len(snap.entries) != len(live) {
		t.Fatalf("%s: the snapshot holds %d entries, the live index %d", what, len(snap.entries), len(live))
	}
	for _, e := range snap.entries {
		if le, ok := live[e.key]; !ok || le != e.kvEntry {
			t.Fatalf("%s: key %x: snapshot %+v, live %+v (%v)", what, e.key, e.kvEntry, le, ok)
		}
	}
	if covered := len(snap.meta.Segs); covered != int(s.active.idx)-1 {
		t.Fatalf("%s: the snapshot covers %d segments, %d are sealed", what, covered, s.active.idx-1)
	}
	for i, sm := range snap.meta.Segs {
		seg := s.segs[i]
		if got := (segMeta{Gen: seg.gen, Live: seg.liveBytes.Load(), Tomb: seg.tombBytes.Load()}); got != sm {
			t.Fatalf("%s: segment %d: snapshot %+v, live %+v", what, i+1, sm, got)
		}
	}
	r.verify(what)
}

// reopen closes the store and opens it again — first tearing the roll
// that created its highest segment when that is still empty and no
// snapshot covers it yet, as a crash before the roll's header was
// durable would, which can leave a segment the snapshot covers to take
// the appends — and checks the pairs.
func (r *kvFoldRun) reopen(tornRoll bool, what string) {
	must(r.t, r.s.Close())
	if tornRoll {
		segs, err := r.ly.listSegments(osFS{}, r.path)
		must(r.t, err)
		covered := 0
		if payload, err := r.ly.loadSnapshotFile(osFS{}, SnapshotPath(r.path)); err == nil && payload != nil {
			snap, err := r.ly.decodeIndex(payload)
			must(r.t, err)
			covered = len(snap.meta.Segs)
		}
		if n := len(segs); n > 1 && n > covered {
			p := SegmentPath(r.path, segs[n-1])
			if info, err := os.Stat(p); err == nil && info.Size() == headerSize {
				must(r.t, os.Truncate(p, 3))
			}
		}
	}
	r.open()
	r.verify(what + ", reopened")
}

func (r *kvFoldRun) verify(what string) {
	r.at = what
	verifyLive(r.t, r.s, r.next, func(i int) bool { return r.live[i] })
}

// TestKVSnapshotHeapAtRest: a snapshot leaves nothing resident behind —
// the fold's map, the decoded previous snapshot and the encoding are
// garbage once it is published, so the store holds each key once, in
// its index. The reopen before the measurement has already grown the
// scan window the fold reads through.
func TestKVSnapshotHeapAtRest(t *testing.T) {
	if raceEnabled {
		t.Skip("heap budgets are meaningless under the race detector")
	}
	const n, batch = 100_000, 1000
	ly := kvLayouts[0].ly
	path := filepath.Join(t.TempDir(), "kv.log")
	s := mustOpenKV(t, path, ly, KVOptions{})
	putKeys(t, s, 0, n, batch)
	must(t, s.Close())
	s = mustOpenKV(t, path, ly, KVOptions{})
	before := heapAtRest()
	must(t, s.Snapshot())
	after := heapAtRest()
	runtime.KeepAlive(s)
	growth := (float64(after) - float64(before)) / n
	t.Logf("heap %d -> %d B after a Snapshot of %d keys: %+.1f B/key", before, after, n, growth)
	if growth > 8 {
		t.Fatalf("a Snapshot left %.1f B per key resident, budget 8", growth)
	}
}

// putKeys stores keys [from, to) with small values, batch at a time.
func putKeys(tb testing.TB, s *KV, from, to, batch int) {
	tb.Helper()
	var is []int
	for i := from; i < to; i++ {
		is = append(is, i)
		if len(is) == batch || i == to-1 {
			values := make([][]byte, len(is))
			for j := range values {
				values[j] = benchNode
			}
			if _, err := s.PutBatch(bkeys(s.ly, is...), values); err != nil {
				tb.Fatal(err)
			}
			is = is[:0]
		}
	}
}

// heapAtRest is the live heap after two collections.
func heapAtRest() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestKVSnapshotCountdownCarriesRecordsLoggedDuringFold: the countdown
// is records logged since the published cut, so records that commit
// while the fold and the publish run — above the cut — stay counted
// after the publish, and a reopen replays exactly them.
func TestKVSnapshotCountdownCarriesRecordsLoggedDuringFold(t *testing.T) {
	eachLayout(t, func(t *testing.T, ly *KVLayout) {
		path := filepath.Join(t.TempDir(), "kv.log")
		s := mustOpenKV(t, path, ly, KVOptions{SegmentBytes: 1 << 20})
		putN(t, s, 0, 10)
		s.opts.Fault = func(p string) error {
			if p == crashSnapCaptured {
				putN(t, s, 10, 13) // arrives while the snapshot is in flight
			}
			return nil
		}
		must(t, s.Snapshot())
		s.opts.Fault = nil
		if ev := s.uncovered(); ev != 3 {
			t.Fatalf("countdown after the publish = %d, want the 3 records logged during it", ev)
		}
		must(t, s.Close())
		s2 := mustOpenKV(t, path, ly, KVOptions{})
		if rs := s2.recStats; !rs.SnapshotLoaded || rs.SnapshotEntries != 10 || rs.RecordsReplayed != 3 {
			t.Fatalf("reopen: %+v, want 10 snapshot entries and 3 replayed", rs)
		}
		if ev := s2.uncovered(); ev != 3 {
			t.Fatalf("countdown after the reopen = %d, want the 3 replayed", ev)
		}
		verifyLive(t, s2, 13, all)
	})
}
