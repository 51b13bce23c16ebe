package seglog

import (
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
)

// gateCommit wraps the store's commit hook so the next batch parks
// inside the (simulated) write+fsync until release is closed; only the
// first batch after arming parks. Installed before any concurrent
// traffic, so swapping the hook is race-free.
func gateCommit(s *KV) (entered, release chan struct{}) {
	entered, release = make(chan struct{}), make(chan struct{})
	var gated atomic.Bool
	gated.Store(true)
	inner := s.comm.Commit
	s.comm.Commit = func(batch []*kvAppend) error {
		if gated.CompareAndSwap(true, false) {
			close(entered)
			<-release
		}
		return inner(batch)
	}
	return entered, release
}

// TestKVReadsOverlapParkedCommit pins the early-lock-release contract:
// while the group-commit leader sits in the fsync it holds the snapshot
// cut shared, never the write mutex, the segment table or the index
// stripes — so reads and stats proceed, later appenders queue without
// holding any lock, and an exclusive capture waits only for the
// in-flight batch, not the queue. Every step synchronizes on channels;
// a regression deadlocks and the test times out.
func TestKVReadsOverlapParkedCommit(t *testing.T) {
	eachFraming(t, func(t *testing.T, ly *KVLayout) {
		path := filepath.Join(t.TempDir(), "kv.log")
		s := mustOpenKV(t, path, ly, KVOptions{Sync: true, SegmentBytes: 1 << 20})
		putN(t, s, 1, 2)
		entered, release := gateCommit(s)

		put2 := make(chan error, 1)
		go func() { put2 <- s.Put(tkey(ly, 2), tval(2)) }()
		<-entered

		// The leader is parked mid-commit. Reads of durable pairs and the
		// accounting must not block behind it...
		verifyLive(t, s, 2, func(i int) bool { return i == 1 })
		if n := s.Stats().LogBytes; n < HeaderSize {
			t.Fatalf("LogBytes while commit parked = %d", n)
		}
		// ...and the parked put is not yet visible: the index applies only
		// after durability.
		if s.Has(tkey(ly, 2)) {
			t.Fatal("pair visible before its batch committed")
		}

		// A second appender queues behind the parked leader without
		// holding the index lock while it waits.
		put3 := make(chan error, 1)
		go func() { put3 <- s.Put(tkey(ly, 3), tval(3)) }()
		for queued := 0; queued < 1; runtime.Gosched() {
			s.wmu.Lock()
			queued = s.comm.QueueLenLocked()
			s.wmu.Unlock()
		}

		// An exclusive capture can now be requested: it waits for the
		// in-flight batch only, so once the gate opens everything drains.
		snapDone := make(chan error, 1)
		go func() { snapDone <- s.Snapshot() }()
		close(release)
		must(t, <-put2)
		must(t, <-put3)
		must(t, <-snapDone)
		if n := s.Stats().Snapshots; n != 1 {
			t.Fatalf("snapshots = %d, want 1", n)
		}
		alive := func(i int) bool { return i >= 1 }
		verifyLive(t, s, 4, alive)
		must(t, s.Close())
		verifyLive(t, mustOpenKV(t, path, ly, KVOptions{}), 4, alive)
	})
}

// TestKVSnapshotFailureKeepsCountdown pins the snapshot-countdown fix:
// a publish failure must leave the event countdown (and the dirty set)
// intact, so the very next maintenance pass retries instead of waiting
// for another SnapshotEvery records.
func TestKVSnapshotFailureKeepsCountdown(t *testing.T) {
	eachFraming(t, func(t *testing.T, ly *KVLayout) {
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
		if n, ev := s.Stats().Snapshots, s.track.Events(); n != 0 || ev < 6 {
			t.Fatalf("after failed publish: %d snapshots, countdown %d (want 0, >= 6)", n, ev)
		}
		// No new records: the retained countdown alone must trigger the retry.
		s.crashHook = nil
		s.maintainPass()
		if n, ev := s.Stats().Snapshots, s.track.Events(); n != 1 || ev >= 4 {
			t.Fatalf("after retry: %d snapshots, countdown %d (want 1, < 4)", n, ev)
		}

		// The retried snapshot must cover everything: one more record, and
		// a reopen replays only that tail.
		putN(t, s, 6, 7)
		must(t, s.Close())
		s2 := mustOpenKV(t, path, ly, KVOptions{})
		if rs := s2.RecoveryStats(); !rs.SnapshotLoaded || rs.RecordsReplayed != 1 {
			t.Fatalf("reopen after retried snapshot: %+v, want snapshot + 1 replayed", rs)
		}
		verifyLive(t, s2, 7, all)
	})
}

// TestKVBatchDeleteSharesOneCommit pins the group-commit economics the
// GC sweep depends on: a batch of deletes enqueued together and then
// awaited commits as ONE batch — one write+fsync — not one per key.
func TestKVBatchDeleteSharesOneCommit(t *testing.T) {
	eachFraming(t, func(t *testing.T, ly *KVLayout) {
		path := filepath.Join(t.TempDir(), "kv.log")
		s := mustOpenKV(t, path, ly, KVOptions{Sync: true})
		const n = 8
		putN(t, s, 0, n)
		before := s.Stats()

		var waits []func() error
		for i := 0; i < n; i++ {
			wait, err := s.EnqueueDelete(tkey(ly, i))
			must(t, err)
			waits = append(waits, wait)
		}
		if !s.Has(tkey(ly, 0)) {
			t.Fatal("enqueued delete applied before its batch committed")
		}
		for _, wait := range waits {
			must(t, wait())
		}
		after := s.Stats()
		if c, r := after.Syncs-before.Syncs, after.Appends-before.Appends; c != 1 || r != n {
			t.Fatalf("delete batch took %d commits for %d records, want 1 for %d", c, r, n)
		}
		must(t, s.Close())
		verifyLive(t, mustOpenKV(t, path, ly, KVOptions{}), n, func(int) bool { return false })
	})
}
