package seglog

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"blobseer/internal/obs"
)

// TestKVReadsOverlapParkedCommit pins the early-lock-release contract:
// while the group-commit leader sits in the fsync it holds no store lock
// — not the write mutex, the segment table or the index stripes — so
// reads and stats proceed, later appenders queue without holding any
// lock, and a snapshot's seal waits only for the in-flight batch, whose
// leader rolls at its tail, not for the queue. Every step synchronizes
// on channels; a regression deadlocks and the test times out.
func TestKVReadsOverlapParkedCommit(t *testing.T) {
	eachLayout(t, func(t *testing.T, ly *KVLayout) {
		path := filepath.Join(t.TempDir(), "kv.log")
		s := mustOpenKV(t, path, ly, KVOptions{Sync: true, SegmentBytes: 1 << 20})
		putN(t, s, 1, 2)
		entered, release := s.GateNextCommit()

		put2 := make(chan error, 1)
		go func() { put2 <- s.Put(tkey(ly, 2), tval(2)) }()
		<-entered

		// The leader is parked mid-commit. Reads of durable pairs and the
		// accounting must not block behind it...
		verifyLive(t, s, 2, func(i int) bool { return i == 1 })
		if n := stats(s).LogBytes; n < headerSize {
			t.Fatalf("LogBytes while commit parked = %d", n)
		}
		// ...and the parked put is not yet visible: the index applies only
		// after durability.
		if has(s, tkey(ly, 2)) {
			t.Fatal("pair visible before its batch committed")
		}

		// A second appender queues behind the parked leader without
		// holding the index lock while it waits.
		put3 := make(chan error, 1)
		go func() { put3 <- s.Put(tkey(ly, 3), tval(3)) }()
		for queued := 0; queued < 1; runtime.Gosched() {
			s.wmu.Lock()
			queued = len(s.comm.queue)
			s.wmu.Unlock()
		}

		// A snapshot can now be requested: its seal waits for the in-flight
		// batch only, so once the gate opens everything drains.
		snapDone := make(chan error, 1)
		go func() { snapDone <- s.Snapshot() }()
		close(release)
		must(t, <-put2)
		must(t, <-put3)
		must(t, <-snapDone)
		if n := stats(s).Snapshots; n != 1 {
			t.Fatalf("snapshots = %d, want 1", n)
		}
		alive := func(i int) bool { return i >= 1 }
		verifyLive(t, s, 4, alive)
		must(t, s.Close())
		verifyLive(t, mustOpenKV(t, path, ly, KVOptions{}), 4, alive)
	})
}

// TestKVSnapshotFailureKeepsCountdown pins the snapshot-countdown fix:
// a publish failure must leave the countdown — records logged since the
// published cut — intact, so the very next maintenance pass retries
// instead of waiting for another SnapshotEvery records.
func TestKVSnapshotFailureKeepsCountdown(t *testing.T) {
	eachLayout(t, func(t *testing.T, ly *KVLayout) {
		path := filepath.Join(t.TempDir(), "kv.log")
		// No SnapshotEvery at open: the store runs no background
		// maintainer, so the test drives maintainPass deterministically.
		s := mustOpenKV(t, path, ly, KVOptions{SegmentBytes: 1 << 20})
		s.opts.SnapshotEvery = 4
		putN(t, s, 0, 6)

		crashAtPoint(s, crashSnapTmpWritten)
		if !s.maintainPass() {
			t.Fatal("maintainPass reported closed")
		}
		if n, ev := stats(s).Snapshots, s.uncovered(); n != 0 || ev < 6 {
			t.Fatalf("after failed publish: %d snapshots, countdown %d (want 0, >= 6)", n, ev)
		}
		// No new records: the retained countdown alone must trigger the retry.
		s.opts.Fault = nil
		s.maintainPass()
		if n, ev := stats(s).Snapshots, s.uncovered(); n != 1 || ev >= 4 {
			t.Fatalf("after retry: %d snapshots, countdown %d (want 1, < 4)", n, ev)
		}

		// The retried snapshot must cover everything: one more record, and
		// a reopen replays only that tail.
		putN(t, s, 6, 7)
		must(t, s.Close())
		s2 := mustOpenKV(t, path, ly, KVOptions{})
		if rs := s2.recStats; !rs.SnapshotLoaded || rs.RecordsReplayed != 1 {
			t.Fatalf("reopen after retried snapshot: %+v, want snapshot + 1 replayed", rs)
		}
		verifyLive(t, s2, 7, all)
	})
}

// TestKVBackgroundSnapshotFailureIsCounted is the same failure in the
// background maintainer, where nothing returns the error: the failed
// pass shows exactly once in the store's series, and the countdown it
// kept lets the next nudge publish although one more record is far
// short of SnapshotEvery.
func TestKVBackgroundSnapshotFailureIsCounted(t *testing.T) {
	eachLayout(t, func(t *testing.T, ly *KVLayout) {
		path := filepath.Join(t.TempDir(), "kv.log")
		failed, published := make(chan struct{}), make(chan struct{})
		tries := 0
		s := mustOpenKV(t, path, ly, KVOptions{SnapshotEvery: 4, Fault: func(p string) error {
			if p != crashSnapTmpWritten {
				return nil
			}
			if tries++; tries == 1 {
				close(failed)
				return errCrash
			}
			close(published)
			return nil
		}})
		putN(t, s, 0, 4) // the fourth nudges the first pass
		<-failed
		putN(t, s, 4, 5) // its nudge waits for the failing pass to end
		<-published
		must(t, s.Close()) // joins the publishing pass
		failures := obs.Value(s, "store_maintenance_failures_total", "pass", "snapshot")
		if n := stats(s).Snapshots; failures != 1 || n != 1 || tries != 2 {
			t.Fatalf("%v failed snapshot passes, %d published, %d publish attempts; want 1, 1, 2", failures, n, tries)
		}
		s2 := mustOpenKV(t, path, ly, KVOptions{})
		if rs := s2.recStats; !rs.SnapshotLoaded || rs.RecordsReplayed != 0 {
			t.Fatalf("reopen: %+v, want every record in the snapshot", rs)
		}
		verifyLive(t, s2, 5, all)
	})
}

// TestCaptureAbortRetainsDirtyAndCountdown covers an incremental
// snapshot that fails after its fold is built: the changes logged since
// the published snapshot — a put and two deletes — stay uncovered and
// counted, and the retry folds every one of them over the old snapshot,
// consuming the countdown.
func TestCaptureAbortRetainsDirtyAndCountdown(t *testing.T) {
	eachLayout(t, func(t *testing.T, ly *KVLayout) {
		path := filepath.Join(t.TempDir(), "kv.log")
		s := mustOpenKV(t, path, ly, KVOptions{SegmentBytes: 1 << 20})
		putN(t, s, 0, 4)
		must(t, s.Snapshot()) // the baseline the next snapshot folds over
		if ev := s.uncovered(); ev != 0 {
			t.Fatalf("countdown after the seed snapshot = %d, want 0", ev)
		}

		putN(t, s, 4, 5)
		deleteIf(t, s, 2, all)
		if ev := s.uncovered(); ev != 3 {
			t.Fatalf("countdown = %d, want 3", ev)
		}

		fired := crashAtPoint(s, crashSnapCaptured)
		if err := s.Snapshot(); !errors.Is(err, errCrash) || !*fired {
			t.Fatalf("snapshot with a fault after the fold: err %v, fired %v", err, *fired)
		}
		if n, ev := stats(s).Snapshots, s.uncovered(); n != 1 || ev != 3 {
			t.Fatalf("after the failed snapshot: %d snapshots, countdown %d (want 1, 3)", n, ev)
		}

		s.opts.Fault = nil
		must(t, s.Snapshot())
		if n, ev := stats(s).Snapshots, s.uncovered(); n != 2 || ev != 0 {
			t.Fatalf("after the retry: %d snapshots, countdown %d (want 2, 0)", n, ev)
		}
		alive := func(i int) bool { return i >= 2 }
		verifyLive(t, s, 5, alive)
		must(t, s.Close())

		s2 := mustOpenKV(t, path, ly, KVOptions{})
		if rs := s2.recStats; !rs.SnapshotLoaded || rs.SnapshotEntries != 3 || rs.RecordsReplayed != 0 {
			t.Fatalf("reopen after the retried snapshot: %+v, want 3 snapshot entries and none replayed", rs)
		}
		verifyLive(t, s2, 5, alive)
	})
}

// bkeys is tkey for the byte-keyed batch calls.
func bkeys(ly *KVLayout, is ...int) [][]byte {
	keys := make([][]byte, len(is))
	for j, i := range is {
		keys[j] = []byte(tkey(ly, i))
	}
	return keys
}

// TestKVBatchDeleteSharesOneCommit pins the group-commit economics the
// GC sweep depends on: the tombstones of one DeleteBatch commit as ONE
// batch — one write+fsync — not one per key; no key leaves the index
// before that batch commits; and the count is of entries dropped, so an
// unknown key counts nothing and a key named twice counts once, though
// both its tombstones are logged.
func TestKVBatchDeleteSharesOneCommit(t *testing.T) {
	eachLayout(t, func(t *testing.T, ly *KVLayout) {
		path := filepath.Join(t.TempDir(), "kv.log")
		s := mustOpenKV(t, path, ly, KVOptions{Sync: true})
		const n = 8
		putN(t, s, 0, n)
		before := stats(s)

		entered, release := s.GateNextCommit()
		type result struct {
			dropped uint64
			err     error
		}
		done := make(chan result, 1)
		go func() {
			dropped, err := s.DeleteBatch(bkeys(ly, 0, 1, 2, 3, n+1, 4, 5, 6, 7, 0))
			done <- result{dropped, err}
		}()
		<-entered
		if !has(s, tkey(ly, 0)) {
			t.Fatal("queued delete applied before its batch committed")
		}
		close(release)
		if res := <-done; res.err != nil || res.dropped != n {
			t.Fatalf("DeleteBatch dropped %d (%v), want %d", res.dropped, res.err, n)
		}
		after := stats(s)
		if c, r := after.Syncs-before.Syncs, after.Appends-before.Appends; c != 1 || r != n+1 {
			t.Fatalf("delete batch took %d commits for %d records, want 1 for %d", c, r, n+1)
		}
		if dropped, err := s.DeleteBatch(bkeys(ly, 0, 1)); err != nil || dropped != 0 {
			t.Fatalf("DeleteBatch of deleted keys dropped %d (%v)", dropped, err)
		}
		if got := stats(s).Appends; got != after.Appends {
			t.Fatalf("delete of unknown keys logged %d records", got-after.Appends)
		}
		must(t, s.Close())
		verifyLive(t, mustOpenKV(t, path, ly, KVOptions{}), n, func(int) bool { return false })
	})
}

// TestKVEnqueuePutContract pins PutBatch, the put whose records are all
// queued before any is awaited: they commit as ONE batch; nothing is
// indexed before its batch commits; a value is read when the batch is
// framed, not when the call starts, and never after it returns; and
// lost names exactly the records that did not enter the index — a
// stored key, which is not even logged, and the later of a key repeated
// in the batch, which is logged but loses to the first.
func TestKVEnqueuePutContract(t *testing.T) {
	// The changed flag rides in kind's padding: a record must not grow
	// into the next size class for it.
	if size := unsafe.Sizeof(kvAppend{}); size != 96 {
		t.Fatalf("a queued record is %d bytes, want 96", size)
	}
	eachLayout(t, func(t *testing.T, ly *KVLayout) {
		path := filepath.Join(t.TempDir(), "kv.log")
		s := mustOpenKV(t, path, ly, KVOptions{Sync: true})
		const n = 8
		before := stats(s)

		// One reusable buffer per record, as a request frame would be:
		// scribbled on before the commit frames it (must be seen) and
		// again after the call returned (must not be).
		all8 := []int{0, 1, 2, 3, 4, 5, 6, 7}
		bufs := make([][]byte, n)
		for i := range bufs {
			bufs[i] = make([]byte, len(tval(i)))
		}
		entered, release := s.GateNextCommit()
		done := make(chan error, 1)
		go func() {
			lost, err := s.PutBatch(bkeys(ly, all8...), bufs)
			if err == nil && len(lost) != 0 {
				err = fmt.Errorf("fresh keys reported lost: %v", lost)
			}
			done <- err
		}()
		<-entered
		for i := range bufs {
			copy(bufs[i], tval(i))
		}
		if has(s, tkey(ly, 0)) {
			t.Fatal("queued put indexed before its batch committed")
		}
		close(release)
		must(t, <-done)
		for i := range bufs {
			clear(bufs[i])
		}
		after := stats(s)
		if c, r := after.Syncs-before.Syncs, after.Appends-before.Appends; c != 1 || r != n {
			t.Fatalf("put batch took %d commits for %d records, want 1 for %d", c, r, n)
		}
		verifyLive(t, s, n, all)

		// A stored key: lost, nothing queued, nothing logged.
		lost, err := s.PutBatch(bkeys(ly, 3), [][]byte{tval(3)})
		must(t, err)
		if !slices.Equal(lost, []int{0}) {
			t.Fatalf("re-put of a stored key: lost = %v, want [0]", lost)
		}
		if got := stats(s).Appends; got != after.Appends {
			t.Fatalf("re-put of a stored key logged %d records", got-after.Appends)
		}

		// The same key twice in one batch, different bytes, among a stored
		// key and a fresh one: both records of the repeat are logged (the
		// index is only consulted when a record is queued), the first wins
		// now and after a reopen, and lost is the stored key and the
		// second of the repeat — nothing else.
		lost, err = s.PutBatch(bkeys(ly, n, 5, n, n+1),
			[][]byte{tval(n), []byte("not what is stored"), tval(n + 1), tval(n + 1)})
		must(t, err)
		if !slices.Equal(lost, []int{1, 2}) {
			t.Fatalf("lost = %v, want [1 2]", lost)
		}
		final := stats(s)
		if r, k := final.Appends-after.Appends, final.Keys-after.Keys; r != 3 || k != 2 {
			t.Fatalf("repeat among a stored and a fresh key: %d records, %d keys; want 3, 2", r, k)
		}
		verifyLive(t, s, n+2, all)
		must(t, s.Close())
		s2 := mustOpenKV(t, path, ly, KVOptions{})
		verifyLive(t, s2, n+2, all)

		// A closed store refuses the batch.
		must(t, s2.Close())
		if lost, err := s2.PutBatch(bkeys(ly, n+2), [][]byte{tval(0)}); err == nil || lost != nil {
			t.Fatalf("PutBatch on a closed store: lost %v, err %v", lost, err)
		}
	})
}

// TestKVEnqueuePutParkedBehindCommit: the records of a PutBatch that
// arrives while another batch is mid-commit queue behind it without
// becoming visible, and a failed commit fails the call and indexes none
// of its records.
func TestKVEnqueuePutParkedBehindCommit(t *testing.T) {
	eachLayout(t, func(t *testing.T, ly *KVLayout) {
		s := mustOpenKV(t, filepath.Join(t.TempDir(), "kv.log"), ly, KVOptions{})
		entered, release := s.GateNextCommit()
		first := make(chan error, 1)
		go func() { first <- s.Put(tkey(ly, 0), tval(0)) }()
		<-entered

		batch := func(is ...int) chan error {
			done := make(chan error, 1)
			values := make([][]byte, len(is))
			for j, i := range is {
				values[j] = tval(i)
			}
			go func() {
				_, err := s.PutBatch(bkeys(ly, is...), values)
				done <- err
			}()
			return done
		}
		behind := batch(1, 2, 3)
		for queued := 0; queued < 3; runtime.Gosched() {
			s.wmu.Lock()
			queued = len(s.comm.queue)
			s.wmu.Unlock()
		}
		if has(s, tkey(ly, 0)) || has(s, tkey(ly, 1)) {
			t.Fatal("pair visible while its commit is parked or queued")
		}
		close(release)
		must(t, <-first)
		must(t, <-behind)
		verifyLive(t, s, 4, all)

		// Fail the batch the next three land in.
		entered, release = s.GateNextCommit()
		doomed := batch(4, 5, 6)
		<-entered
		release <- errors.New("disk on fire")
		if err := <-doomed; err == nil {
			t.Fatal("PutBatch over a failed commit returned nil")
		}
		verifyLive(t, s, 7, func(i int) bool { return i < 4 })
		// The store is not wedged: the same keys go through afterwards.
		putN(t, s, 4, 7)
		verifyLive(t, s, 7, all)
		must(t, s.Close())
	})
}
