package seglog

import (
	"sync"
	"testing"
)

// drive runs one capture against a model state map, following the
// protocol stores use, and returns the merged entries.
func drive(t *testing.T, tr *Tracker[string, int], state map[string]int) map[string]int {
	t.Helper()
	cut := tr.Begin()
	if cut.Full() {
		seed := make(map[string]int, len(state))
		for k, v := range state {
			seed[k] = v
		}
		cut.Seed(seed)
	} else {
		for k := range cut.Dirty() {
			v, ok := state[k]
			cut.Resolve(k, v, ok)
		}
	}
	return cut.Merged()
}

func wantEntries(t *testing.T, got, want map[string]int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("merged has %d entries, want %d (%v vs %v)", len(got), len(want), got, want)
	}
	for k, v := range want {
		if gv, ok := got[k]; !ok || gv != v {
			t.Fatalf("merged[%q] = %d,%v, want %d", k, gv, ok, v)
		}
	}
}

// TestCaptureIncremental pins the core diff mechanics: a full seed,
// then an incremental capture that sees exactly the marked updates and
// deletions merged over the baseline.
func TestCaptureIncremental(t *testing.T) {
	tr := &Tracker[string, int]{}
	state := map[string]int{"a": 1, "b": 2, "c": 3}

	cut := tr.Begin()
	if !cut.Full() {
		t.Fatal("first capture must be full")
	}
	wantEntries(t, drive(t, tr, state), state)
	// merged not committed yet — abort keeps the next capture full
	cut2 := tr.Begin()
	if !cut2.Full() {
		t.Fatal("capture after uncommitted capture must still be full")
	}
	cut2.Seed(map[string]int{"a": 1, "b": 2, "c": 3})
	cut2.Merged()
	cut2.Commit()

	// Mutate: update b, delete c, insert d; a untouched.
	state["b"] = 20
	tr.Mark("b")
	delete(state, "c")
	tr.Mark("c")
	state["d"] = 4
	tr.Mark("d")

	cut3 := tr.Begin()
	if cut3.Full() {
		t.Fatal("capture after a committed baseline must be incremental")
	}
	if len(cut3.Dirty()) != 3 {
		t.Fatalf("dirty = %v, want {b,c,d}", cut3.Dirty())
	}
	for k := range cut3.Dirty() {
		v, ok := state[k]
		cut3.Resolve(k, v, ok)
	}
	wantEntries(t, cut3.Merged(), map[string]int{"a": 1, "b": 20, "d": 4})
	cut3.Commit()

	// Nothing changed: the next incremental capture is the same set.
	wantEntries(t, drive(t, tr, state), map[string]int{"a": 1, "b": 20, "d": 4})
}

// TestCaptureAbortRetainsDirtyAndCountdown is the countdown-bug-family
// regression: a failed publish must neither consume the event countdown
// nor lose the dirty keys, so the next pass retries with a correct
// diff.
func TestCaptureAbortRetainsDirtyAndCountdown(t *testing.T) {
	tr := &Tracker[string, int]{}
	state := map[string]int{"a": 1}
	// commit the seed so later captures are incremental
	cutSeed := tr.Begin()
	cutSeed.Seed(map[string]int{"a": 1})
	cutSeed.Merged()
	cutSeed.Commit()

	state["b"] = 2
	tr.Mark("b")
	if n := tr.AddEvents(5); n != 5 {
		t.Fatalf("countdown = %d, want 5", n)
	}

	// Publish fails: abort after merging (the publish-failure shape).
	cut := tr.Begin()
	for k := range cut.Dirty() {
		v, ok := state[k]
		cut.Resolve(k, v, ok)
	}
	cut.Merged()
	cut.Abort()

	if n := tr.Events(); n != 5 {
		t.Fatalf("countdown after abort = %d, want 5 (retry must fire)", n)
	}
	retry := tr.Begin()
	if _, ok := retry.Dirty()["b"]; !ok {
		t.Fatalf("dirty after abort = %v, want b restored", retry.Dirty())
	}
	for k := range retry.Dirty() {
		v, ok := state[k]
		retry.Resolve(k, v, ok)
	}
	wantEntries(t, retry.Merged(), map[string]int{"a": 1, "b": 2})
	retry.Commit()
	if n := tr.Events(); n != 0 {
		t.Fatalf("countdown after commit = %d, want 0", n)
	}
}

// TestCaptureAbortBeforeMerge covers the capture-error shape: abort
// before Merged leaves the baseline untouched and restores the dirty
// keys.
func TestCaptureAbortBeforeMerge(t *testing.T) {
	tr := &Tracker[string, int]{}
	seed := tr.Begin()
	seed.Seed(map[string]int{"a": 1})
	seed.Merged()
	seed.Commit()

	tr.Mark("a")
	cut := tr.Begin()
	cut.Abort() // e.g. an invariant check failed mid-resolve

	retry := tr.Begin()
	if _, ok := retry.Dirty()["a"]; !ok {
		t.Fatalf("dirty after pre-merge abort = %v, want a restored", retry.Dirty())
	}
	retry.Resolve("a", 7, true)
	wantEntries(t, retry.Merged(), map[string]int{"a": 7})
}

// TestCaptureCountdownCarriesEventsDuringPublish: events recorded after
// the cut (mutators run while the publish writes) survive the commit
// and count toward the next snapshot.
func TestCaptureCountdownCarriesEventsDuringPublish(t *testing.T) {
	tr := &Tracker[string, int]{}
	tr.AddEvents(10)
	cut := tr.Begin()
	cut.Seed(map[string]int{})
	cut.Merged()
	tr.AddEvents(3) // arrives while the publish is in flight
	cut.Commit()
	if n := tr.Events(); n != 3 {
		t.Fatalf("countdown after commit = %d, want 3 carried over", n)
	}
}

// TestCaptureMarksBeforeFirstBeginCostNothing pins the dirty-set bound:
// the first capture is a full scan that never reads the dirty set, so
// until a capture has begun Mark must retain nothing — a store that
// never snapshots would otherwise remember every key it ever wrote. The
// switch is the first Begin, not its Commit: marks between the two are
// what the second, incremental capture resolves, and they survive an
// Abort of the first.
func TestCaptureMarksBeforeFirstBeginCostNothing(t *testing.T) {
	tr := &Tracker[string, int]{}
	state := map[string]int{}
	for i := 0; i < 1000; i++ {
		k := string(rune('a' + i%26))
		state[k] = i
		tr.Mark(k)
	}
	if tr.dirty != nil {
		t.Fatalf("%d keys retained before any capture began", len(tr.dirty))
	}

	// The full capture needs none of those marks: it seeds from state.
	first := tr.Begin()
	if !first.Full() || len(first.Dirty()) != 0 {
		t.Fatalf("first capture: full=%v dirty=%v", first.Full(), first.Dirty())
	}
	seed := make(map[string]int, len(state))
	for k, v := range state {
		seed[k] = v
	}
	first.Seed(seed)
	first.Merged()

	// Mutations after the cut, before the publish finishes.
	state["a"] = -1
	tr.Mark("a")
	delete(state, "b")
	tr.Mark("b")
	first.Commit()

	second := tr.Begin()
	if second.Full() || len(second.Dirty()) != 2 {
		t.Fatalf("second capture: full=%v dirty=%v, want incremental {a,b}", second.Full(), second.Dirty())
	}
	wantDirty := func(cut *Capture[string, int]) {
		t.Helper()
		for _, k := range []string{"a", "b"} {
			if _, ok := cut.Dirty()[k]; !ok {
				t.Fatalf("dirty = %v, want %q in it", cut.Dirty(), k)
			}
		}
	}
	wantDirty(second)
	second.Abort()
	wantEntries(t, drive(t, tr, state), state)

	// The same marks survive an aborted first capture: the retry is full
	// again and ignores them, but the capture after it must see them.
	tr2 := &Tracker[string, int]{}
	failed := tr2.Begin()
	failed.Seed(map[string]int{"x": 1})
	tr2.Mark("x")
	failed.Abort()
	retry := tr2.Begin()
	if !retry.Full() {
		t.Fatal("capture after an aborted first capture must be full")
	}
	retry.Seed(map[string]int{"x": 2})
	retry.Merged()
	tr2.Mark("y")
	retry.Commit()
	next := tr2.Begin()
	if _, ok := next.Dirty()["y"]; next.Full() || !ok {
		t.Fatalf("capture after the retry: full=%v dirty=%v, want incremental with y", next.Full(), next.Dirty())
	}
}

// TestCaptureMarkRace exercises Mark/AddEvents against Begin/Commit
// under the race detector.
func TestCaptureMarkRace(t *testing.T) {
	tr := &Tracker[int, int]{}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			tr.Mark(i % 64)
			tr.AddEvents(1)
		}
	}()
	for round := 0; round < 50; round++ {
		cut := tr.Begin()
		if cut.Full() {
			cut.Seed(map[int]int{})
		} else {
			for k := range cut.Dirty() {
				cut.Resolve(k, k, true)
			}
		}
		cut.Merged()
		if round%2 == 0 {
			cut.Commit()
		} else {
			cut.Abort()
		}
	}
	close(stop)
	wg.Wait()
}
