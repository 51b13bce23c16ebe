package seglog

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"blobseer/internal/vclock"
)

// TestMaintenanceRunsOnTheOwnersClock: a nudge spawns its pass on the
// store's scheduler, so under a Virtual one the pass runs in its turn of
// the baton — never beside the goroutine that nudged it, and as soon as
// that goroutine blocks on the clock — and Close joins a pass that is
// itself blocked on the clock.
func TestMaintenanceRunsOnTheOwnersClock(t *testing.T) {
	eachLayout(t, func(t *testing.T, ly *KVLayout) {
		clock := vclock.NewVirtual(0)
		var err error
		if simErr := clock.Run(func() { err = maintainOnClock(clock, filepath.Join(t.TempDir(), "kv.log"), ly) }); simErr != nil {
			t.Fatal(simErr)
		}
		if err != nil {
			t.Fatal(err)
		}
	})
}

// maintainOnClock is TestMaintenanceRunsOnTheOwnersClock's simulated
// goroutine: it fails by returning, since a t.Fatal there would never
// hand the baton back.
func maintainOnClock(clock *vclock.Virtual, path string, ly *KVLayout) error {
	const pause = time.Second
	var stall bool // the next snapshot pass sleeps once it is live
	s, err := OpenKV(clock, path, ly, KVOptions{SnapshotEvery: 4, CompactRatio: 0.5, SegmentBytes: 256, Fault: func(point string) error {
		if point == crashSnapRenamed && stall {
			stall = false
			return clock.Sleep(pause)
		}
		return nil
	}})
	if err != nil {
		return err
	}
	defer s.Close()
	put := func(from, to int) error {
		for i := from; i < to; i++ {
			if err := s.Put(tkey(ly, i), tval(i)); err != nil {
				return err
			}
		}
		return nil
	}
	// moves checks that a pass counter stands still while this goroutine
	// runs, and moves once it blocks on the clock for a moment.
	moves := func(what string, counter func() uint64) error {
		before := counter()
		for range 3 {
			runtime.Gosched()
			if n := counter(); n != before {
				return fmt.Errorf("%s: %d while the nudging goroutine runs, want %d", what, n, before)
			}
		}
		if err := clock.Sleep(time.Millisecond); err != nil {
			return err
		}
		if n := counter(); n == before {
			return fmt.Errorf("%s: still %d once the nudging goroutine blocked", what, n)
		}
		return nil
	}
	snapshots := func() uint64 { return stats(s).Snapshots }
	compactions := func() uint64 { return stats(s).Compactions }

	// A Put that makes a snapshot due.
	if err := put(0, 4); err != nil {
		return err
	}
	if err := moves("snapshots", snapshots); err != nil {
		return err
	}
	// Deletes of sealed records, each nudging compaction.
	for i := 0; i < 4; i++ {
		if err := s.Delete(tkey(ly, i)); err != nil {
			return err
		}
	}
	if err := moves("rewrites", compactions); err != nil {
		return err
	}
	// A pass blocked on the clock, live snapshot and all: Close waits for
	// it to finish.
	stall = true
	if err := put(4, 8); err != nil {
		return err
	}
	before := snapshots()
	if err := clock.Sleep(time.Millisecond); err != nil {
		return err
	}
	if n := snapshots(); n != before || stall {
		return fmt.Errorf("pass did not stall at %s: %d snapshots, want %d", crashSnapRenamed, n, before)
	}
	start := clock.Now()
	if err := s.Close(); err != nil {
		return err
	}
	if n, waited := snapshots(), clock.Now()-start; n == before || waited < pause-time.Millisecond {
		return fmt.Errorf("Close returned after %v with %d snapshots; want the stalled pass finished, after %v",
			waited, n, pause-time.Millisecond)
	}
	return nil
}

// TestMaintenanceCoalescesBehindASlowPass: on the real clock, commits
// that nudge while a pass is held up spawn no goroutines of their own —
// they fold into one more pass — so a burst of writes behind a slow
// snapshot neither piles up goroutines nor snapshots once per nudge.
func TestMaintenanceCoalescesBehindASlowPass(t *testing.T) {
	eachLayout(t, func(t *testing.T, ly *KVLayout) {
		held, release := make(chan struct{}), make(chan struct{})
		var hold sync.Once
		s, err := OpenKV(nil, filepath.Join(t.TempDir(), "kv.log"), ly, KVOptions{SnapshotEvery: 4, CompactRatio: 0.5, SegmentBytes: 1024, Fault: func(point string) error {
			if point == crashSnapTmpWritten {
				hold.Do(func() { close(held); <-release })
			}
			return nil
		}})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		base := runtime.NumGoroutine()
		for i := 0; i < 4; i++ {
			if err := s.Put(tkey(ly, i), tval(i)); err != nil {
				t.Fatal(err)
			}
		}
		<-held
		// About 100 batches, each one nudging: a snapshot is due all along
		// (the held one has not published), and the deletes leave
		// tombstones of sealed records.
		for i := 4; i < 100; i++ {
			if err := s.Put(tkey(ly, i), tval(i)); err != nil {
				t.Fatal(err)
			}
			if i%2 == 0 {
				if err := s.Delete(tkey(ly, i-4)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if n := runtime.NumGoroutine(); n > base+1 {
			t.Errorf("%d goroutines behind the held pass, want at most %d", n, base+1)
		}
		close(release)
		// The pass goroutine exits once it has caught up; Close would cut
		// the passes short.
		for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines 10s after the release, want at most %d", runtime.NumGoroutine(), base)
			}
		}
		// The held pass and the one the burst folded into, each snapshotting
		// when due and again to cover a compaction's rewrites.
		if n := stats(s).Snapshots; n > 4 {
			t.Errorf("%d snapshots after a burst behind one held pass, want at most 4", n)
		}
	})
}
