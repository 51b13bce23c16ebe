package seglog

import (
	"errors"
	"path/filepath"
	"runtime"
	"testing"
)

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
		entered, release := s.GateNextCommit()

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

// TestKVEnqueuePutContract pins the two-phase put: records enqueued
// together and then awaited commit as ONE batch; nothing is indexed
// before its batch commits; the value is read when the batch is framed,
// not at enqueue, and never after the wait returns; a stored key is a
// no-op whose wait costs nothing; and a key enqueued twice before the
// first commits is logged twice but indexed once, first record winning.
func TestKVEnqueuePutContract(t *testing.T) {
	eachFraming(t, func(t *testing.T, ly *KVLayout) {
		path := filepath.Join(t.TempDir(), "kv.log")
		s := mustOpenKV(t, path, ly, KVOptions{Sync: true})
		const n = 8
		before := s.Stats()

		// One reusable buffer per record, as a request frame would be:
		// scribbled on before the commit frames it (must be seen) and
		// again after the wait returned (must not be).
		bufs := make([][]byte, n)
		var waits []func() error
		for i := 0; i < n; i++ {
			bufs[i] = make([]byte, len(tval(i)))
			wait, err := s.EnqueuePut(tkey(ly, i), bufs[i])
			must(t, err)
			waits = append(waits, wait)
			copy(bufs[i], tval(i))
		}
		if s.Has(tkey(ly, 0)) {
			t.Fatal("enqueued put indexed before its batch committed")
		}
		for _, wait := range waits {
			must(t, wait())
		}
		for i := range bufs {
			clear(bufs[i])
		}
		after := s.Stats()
		if c, r := after.Syncs-before.Syncs, after.Appends-before.Appends; c != 1 || r != n {
			t.Fatalf("put batch took %d commits for %d records, want 1 for %d", c, r, n)
		}
		verifyLive(t, s, n, all)

		// A stored key: nothing queued, nothing logged.
		wait, err := s.EnqueuePut(tkey(ly, 3), tval(3))
		must(t, err)
		must(t, wait())
		if got := s.Stats().Appends; got != after.Appends {
			t.Fatalf("re-put of a stored key logged %d records", got-after.Appends)
		}

		// The same key twice in one batch, different bytes: both records
		// are logged (the index is only consulted at enqueue), the first
		// wins now and after a reopen.
		w1, err := s.EnqueuePut(tkey(ly, n), tval(n))
		must(t, err)
		w2, err := s.EnqueuePut(tkey(ly, n), tval(n+1))
		must(t, err)
		must(t, w1())
		must(t, w2())
		final := s.Stats()
		if r, k := final.Appends-after.Appends, final.Keys-after.Keys; r != 2 || k != 1 {
			t.Fatalf("double enqueue: %d records, %d keys; want 2, 1", r, k)
		}
		verifyLive(t, s, n+1, all)
		must(t, s.Close())
		s2 := mustOpenKV(t, path, ly, KVOptions{})
		verifyLive(t, s2, n+1, all)

		// A closed store refuses the enqueue; there is then no wait to call.
		must(t, s2.Close())
		if wait, err := s2.EnqueuePut(tkey(ly, n+2), tval(0)); err == nil || wait != nil {
			t.Fatalf("enqueue on a closed store: wait %v, err %v", wait != nil, err)
		}
	})
}

// TestKVEnqueuePutParkedBehindCommit: puts enqueued while another batch
// is mid-commit queue behind it without becoming visible, and a failed
// commit fails every wait of its batch and indexes none of it.
func TestKVEnqueuePutParkedBehindCommit(t *testing.T) {
	eachFraming(t, func(t *testing.T, ly *KVLayout) {
		s := mustOpenKV(t, filepath.Join(t.TempDir(), "kv.log"), ly, KVOptions{})
		entered, release := s.GateNextCommit()
		first := make(chan error, 1)
		go func() { first <- s.Put(tkey(ly, 0), tval(0)) }()
		<-entered

		var waits []func() error
		for i := 1; i <= 3; i++ {
			wait, err := s.EnqueuePut(tkey(ly, i), tval(i))
			must(t, err)
			waits = append(waits, wait)
		}
		// Fail the batch those three land in: the gated one is already
		// past its hook, so the next gate is theirs.
		close(release)
		must(t, <-first)
		entered, release = s.GateNextCommit()
		go func() { <-entered; release <- errors.New("disk on fire") }()
		for _, wait := range waits {
			if err := wait(); err == nil {
				t.Fatal("wait of a failed batch returned nil")
			}
		}
		verifyLive(t, s, 4, func(i int) bool { return i == 0 })
		// The store is not wedged: the same keys go through afterwards.
		putN(t, s, 1, 4)
		verifyLive(t, s, 4, all)
		must(t, s.Close())
	})
}
