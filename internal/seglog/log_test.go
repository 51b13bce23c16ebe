package seglog

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"blobseer/internal/wire"
)

// recState is the test machine's state: the records folded, in order.
type recState struct{ recs []string }

// testMachine folds records into recState; its snapshot is the count of
// covered segments' successor and the records, wire-encoded.
var testMachine = &Machine[*recState]{
	Format: Format{Name: "testlog", RecMagic: 0x7E57C0DE, SnapMagic: 0x5AA75E67},
	Empty:  func() *recState { return &recState{} },
	Decode: func(p []byte) (*recState, uint64, error) {
		st, next := &recState{}, uint64(0)
		c := wire.DecodeFrom(p)
		st.code(&c, &next)
		return st, next, c.Finish()
	},
	Encode: func(st *recState, next uint64) []byte {
		c := wire.EncodeTo(nil)
		st.code(&c, &next)
		return c.Encoded()
	},
	Apply: func(st *recState, p []byte) error {
		if len(p) == 0 {
			return errors.New("empty record")
		}
		st.recs = append(st.recs, string(p))
		return nil
	},
	Len: func(st *recState) int { return len(st.recs) },
}

// code is the test snapshot's layout: next, then the records.
func (st *recState) code(c *wire.Codec, next *uint64) {
	c.Uint64(next)
	for i := range wire.Slice(c, &st.recs, 4) {
		c.String(&st.recs[i])
	}
}

// eachLogFS runs f on the operating system's file system and in
// memory, with the path of a log there.
func eachLogFS(t *testing.T, f func(t *testing.T, fsys fileSystem, path string)) {
	t.Run("os", func(t *testing.T) { f(t, osFS{}, filepath.Join(t.TempDir(), "log")) })
	t.Run("mem", func(t *testing.T) { f(t, newMemFS(), "mem/log") })
}

// logOpener opens, and reopens, the log at path in fsys.
func logOpener(t *testing.T, fsys fileSystem, path string) func(LogOptions) (*Log, *recState) {
	return func(opts LogOptions) (*Log, *recState) {
		t.Helper()
		l, st, err := openLog(nil, fsys, path, testMachine, opts)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		t.Cleanup(func() { l.Close() })
		return l, st
	}
}

func logAppend(l *Log, rec string) error {
	p, err := l.Enqueue([]byte(rec))
	if err != nil {
		return err
	}
	return l.Await(p)
}

// queueBehindLeader marks a leader mid-commit, so that n concurrent
// appends can only queue, and returns their outcomes.
func queueBehindLeader(l *Log, n int) <-chan error {
	l.mu.Lock()
	l.comm.leading = true
	l.mu.Unlock()
	errs := make(chan error, n)
	for i := range n {
		go func() { errs <- logAppend(l, fmt.Sprint("rec-", i)) }()
	}
	for {
		l.mu.Lock()
		queued := len(l.comm.queue)
		l.mu.Unlock()
		if queued == n {
			return errs
		}
		runtime.Gosched()
	}
}

// TestLogGroupCommitBatches: five records queued behind a leader commit
// as one batch with one fsync, and a reopen folds all five.
func TestLogGroupCommitBatches(t *testing.T) {
	eachLogFS(t, func(t *testing.T, fsys fileSystem, path string) {
		open := logOpener(t, fsys, path)
		l, _ := open(LogOptions{Sync: true})
		const n = 5
		errs := queueBehindLeader(l, n)
		l.mu.Lock()
		if err := l.comm.lead(nil); err != nil { // the returning leader
			t.Fatalf("caretake: %v", err)
		}
		for range n {
			if err := <-errs; err != nil {
				t.Fatalf("batched append: %v", err)
			}
		}
		if st := l.Stats(); st.Appends != n || st.Syncs != 1 {
			t.Fatalf("appends=%d syncs=%d, want %d and 1 (group commit)", st.Appends, st.Syncs, n)
		}
		must(t, l.Close())
		l2, st := open(LogOptions{})
		if len(st.recs) != n || l2.Stats().Replayed != n {
			t.Fatalf("reopen folded %d records (%d replayed), want %d", len(st.recs), l2.Stats().Replayed, n)
		}
	})
}

// TestLogCloseFailsQueuedAppends: records queued behind a leader that
// never comes back fail at Close, and later appends fail fast.
func TestLogCloseFailsQueuedAppends(t *testing.T) {
	eachLogFS(t, func(t *testing.T, fsys fileSystem, path string) {
		open := logOpener(t, fsys, path)
		l, _ := open(LogOptions{})
		errs := queueBehindLeader(l, 2)
		must(t, l.Close())
		for range 2 {
			if err := <-errs; !errors.Is(err, ErrClosed) {
				t.Fatalf("append parked at close: %v, want ErrClosed", err)
			}
		}
		if err := logAppend(l, "late"); !errors.Is(err, ErrClosed) {
			t.Fatalf("append after close: %v, want ErrClosed", err)
		}
	})
}

// TestLogCheckpointFoldsAndDeletes: a checkpoint over rolled segments
// leaves one segment, and a reopen loads the snapshot, folds only the
// tail and comes up with every record in order. Crashing the next
// checkpoint at each stage, in order, changes none of that.
func TestLogCheckpointFoldsAndDeletes(t *testing.T) {
	eachLogFS(t, func(t *testing.T, fsys fileSystem, path string) {
		open := logOpener(t, fsys, path)
		var want []string
		var stages []string
		failAt := ""
		opts := LogOptions{Sync: true, SegmentBytes: 64, Fault: func(point string) error {
			stages = append(stages, point)
			if point == failAt {
				return errCrash
			}
			return nil
		}}
		l, _ := open(opts)
		add := func(n int) {
			for range n {
				rec := fmt.Sprint("record-", len(want))
				must(t, logAppend(l, rec))
				want = append(want, rec)
			}
		}
		add(12) // a record per segment, nearly
		must(t, l.Checkpoint())
		if segs, err := testMachine.listSegments(l.fs, l.base); err != nil || len(segs) != 1 {
			t.Fatalf("segments after a checkpoint: %v, %v; want the active one", segs, err)
		}
		// Every stage, in order; a segment-deleted per covered segment.
		if len(stages) < 6 || !slices.Equal(stages[:4], []string{"begin", "captured", "tmp-written", "renamed"}) ||
			slices.ContainsFunc(stages[4:], func(s string) bool { return s != "segment-deleted" }) {
			t.Fatalf("stages reached: %v", stages)
		}
		covered := len(want)
		add(3)
		for _, failAt = range []string{"begin", "captured", "tmp-written", "renamed", "segment-deleted"} {
			stages = nil
			if err := l.Checkpoint(); !errors.Is(err, errCrash) {
				t.Fatalf("checkpoint crashed at stage %q: %v", failAt, err)
			}
			if stages[len(stages)-1] != failAt {
				t.Fatalf("stages before the crash at %q: %v", failAt, stages)
			}
			must(t, l.Close())
			var st *recState
			l, st = open(opts)
			if !slices.Equal(st.recs, want) {
				t.Fatalf("crash at stage %q: reopen folded %v, want %v", failAt, st.recs, want)
			}
			if r := l.Stats(); !r.SnapshotLoaded || r.Replayed > len(want)-covered {
				t.Fatalf("crash at stage %q: %+v, want the snapshot and at most the tail", failAt, r)
			}
			add(2)
		}
	})
}

// TestLogRefusesAGap: a segment missing between the snapshot's cut and
// the highest one fails the open, and deletes nothing.
func TestLogRefusesAGap(t *testing.T) {
	eachLogFS(t, func(t *testing.T, fsys fileSystem, path string) {
		l, _ := logOpener(t, fsys, path)(LogOptions{SegmentBytes: 1})
		for i := range 4 {
			must(t, logAppend(l, fmt.Sprint("r", i)))
		}
		must(t, l.Close())
		must(t, fsys.Remove(SegmentPath(path, 2)))
		if _, _, err := openLog(nil, fsys, path, testMachine, LogOptions{}); err == nil {
			t.Fatal("open over a missing segment succeeded")
		}
		if segs, _ := testMachine.listSegments(fsys, path); len(segs) != 4 {
			t.Fatalf("a refused open left segments %v", segs)
		}
	})
}

// BenchmarkLogAppend appends one event-sized record (an ASSIGN is 41
// payload bytes) per op, fsync off, from 4 goroutines per CPU.
func BenchmarkLogAppend(b *testing.B) {
	l, _, err := OpenLog(nil, filepath.Join(b.TempDir(), "log"), testMachine, LogOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	rec := make([]byte, 41)
	b.ReportAllocs()
	b.SetParallelism(4)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			p, err := l.Enqueue(rec)
			if err == nil {
				err = l.Await(p)
			}
			if err != nil {
				b.Error(err)
				return
			}
		}
	})
}
