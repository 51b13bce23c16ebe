package seglog

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// testAppend is the minimal Parked implementation.
type testAppend struct {
	rec  string
	cell cell
}

func (a *testAppend) slot() *cell { return &a.cell }

// testStore wires a Committer to counters instead of a disk.
type testStore struct {
	mu      sync.Mutex
	closed  bool
	commits atomic.Uint64 // batches committed (≈ fsyncs)
	records atomic.Uint64 // records committed
	applied atomic.Uint64 // records applied
	comm    committer[*testAppend]
}

var errTestClosed = errors.New("test store closed")

func newTestStore() *testStore {
	s := &testStore{}
	s.comm = committer[*testAppend]{
		Mu:        &s.mu,
		Closed:    func() bool { return s.closed },
		ErrClosed: errTestClosed,
		Commit: func(batch []*testAppend) error {
			s.commits.Add(1)
			s.records.Add(uint64(len(batch)))
			return nil
		},
		Apply: func(batch []*testAppend) { s.applied.Add(uint64(len(batch))) },
	}
	return s
}

func (s *testStore) append(rec string) error {
	a := &testAppend{rec: rec}
	if err := s.comm.Enqueue(a); err != nil {
		return err
	}
	return s.comm.Await(a)
}

// TestGroupCommitBatches pins the deterministic mechanics: with a leader
// marked active, concurrent appends queue, and one caretaker pass
// commits them all as a single batch.
func TestGroupCommitBatches(t *testing.T) {
	s := newTestStore()
	s.mu.Lock()
	s.comm.leading = true
	s.mu.Unlock()

	const n = 5
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() { errs <- s.append("r") }()
	}
	for {
		s.mu.Lock()
		queued := len(s.comm.queue)
		s.mu.Unlock()
		if queued == n {
			break
		}
		runtime.Gosched()
	}
	s.mu.Lock()
	if err := s.comm.lead(nil); err != nil {
		t.Fatalf("caretake: %v", err)
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("batched append: %v", err)
		}
	}
	if c, r, a := s.commits.Load(), s.records.Load(), s.applied.Load(); c != 1 || r != n || a != n {
		t.Fatalf("commits=%d records=%d applied=%d, want 1/%d/%d", c, r, a, n, n)
	}
}

// TestGroupCommitConcurrent hammers the natural protocol — leadership
// election, one-batch tenure, promotion — under the race detector, and
// checks no record is lost or double-committed.
func TestGroupCommitConcurrent(t *testing.T) {
	s := newTestStore()
	const workers, each = 8, 64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := s.append("r"); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if r, a := s.records.Load(), s.applied.Load(); r != workers*each || a != workers*each {
		t.Fatalf("committed %d, applied %d, want %d", r, a, workers*each)
	}
	if c := s.commits.Load(); c > workers*each {
		t.Fatalf("commits=%d exceeds records — a batch committed twice", c)
	}
}

// TestCloseFailsQueuedAppends checks shutdown while appends are parked
// behind a leader: queued-but-untaken records fail with the store's
// error, and later appends fail fast.
func TestCloseFailsQueuedAppends(t *testing.T) {
	s := newTestStore()
	s.mu.Lock()
	s.comm.leading = true // no real leader will ever drain
	s.mu.Unlock()
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() { errs <- s.append("r") }()
	}
	for {
		s.mu.Lock()
		queued := len(s.comm.queue)
		s.mu.Unlock()
		if queued == 2 {
			break
		}
		runtime.Gosched()
	}
	s.mu.Lock()
	s.closed = true
	s.comm.FailQueuedLocked(errTestClosed)
	s.mu.Unlock()
	for i := 0; i < 2; i++ {
		if err := <-errs; !errors.Is(err, errTestClosed) {
			t.Fatalf("append parked at close: %v, want %v", err, errTestClosed)
		}
	}
	if err := s.append("late"); !errors.Is(err, errTestClosed) {
		t.Fatalf("append after close: %v, want %v", err, errTestClosed)
	}
	if r := s.records.Load(); r != 0 {
		t.Fatalf("%d records committed through a closed store", r)
	}
}

// TestTwoPhaseAppendBatches: records enqueued before any Await commit
// as one batch when the designated leader finally parks, and every
// Await observes the outcome.
func TestTwoPhaseAppendBatches(t *testing.T) {
	s := newTestStore()
	s.comm.Apply = nil // two-phase stores apply at enqueue time
	const n = 4
	recs := make([]*testAppend, n)
	for i := range recs {
		recs[i] = &testAppend{rec: "r"}
		if err := s.comm.Enqueue(recs[i]); err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
	}
	s.mu.Lock()
	if q := len(s.comm.queue); q != n {
		t.Fatalf("queued = %d, want %d", q, n)
	}
	s.mu.Unlock()
	if s.commits.Load() != 0 {
		t.Fatal("commit ran before any Await")
	}
	for i := range recs {
		if err := s.comm.Await(recs[i]); err != nil {
			t.Fatalf("await %d: %v", i, err)
		}
	}
	if c, r := s.commits.Load(), s.records.Load(); c != 1 || r != n {
		t.Fatalf("commits=%d records=%d, want 1/%d — the batch must share one fsync", c, r, n)
	}
}

// TestTwoPhaseFailStopWedges: after one commit failure a fail-stop
// committer fails the whole batch and every later enqueue, so the
// durable log stays a prefix of the enqueue order.
func TestTwoPhaseFailStopWedges(t *testing.T) {
	s := newTestStore()
	s.comm.Apply = nil
	s.comm.FailStop = true
	errDisk := errors.New("disk gone")
	s.comm.Commit = func(batch []*testAppend) error { return errDisk }

	a := &testAppend{rec: "r"}
	if err := s.comm.Enqueue(a); err != nil {
		t.Fatal(err)
	}
	if err := s.comm.Await(a); !errors.Is(err, errDisk) {
		t.Fatalf("await: %v, want %v", err, errDisk)
	}
	if err := s.comm.Enqueue(&testAppend{rec: "r"}); !errors.Is(err, errDisk) {
		t.Fatalf("enqueue after wedge: %v, want %v", err, errDisk)
	}
	if err := s.append("r"); !errors.Is(err, errDisk) {
		t.Fatalf("append after wedge: %v, want %v", err, errDisk)
	}
}

// TestTwoPhaseCloseBeforeAwait: shutdown between Enqueue and Await
// delivers the close error to the designated leader instead of letting
// it commit through a closed store.
func TestTwoPhaseCloseBeforeAwait(t *testing.T) {
	s := newTestStore()
	s.comm.Apply = nil
	a := &testAppend{rec: "r"}
	if err := s.comm.Enqueue(a); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	s.closed = true
	s.comm.FailQueuedLocked(errTestClosed)
	s.mu.Unlock()
	if err := s.comm.Await(a); !errors.Is(err, errTestClosed) {
		t.Fatalf("await after close: %v, want %v", err, errTestClosed)
	}
	if r := s.records.Load(); r != 0 {
		t.Fatalf("%d records committed through a closed store", r)
	}
}

// TestLeadingSpansDesignationAndBatch: LeadingLocked is true from the
// Enqueue that designates a leader, through its batch in flight, until
// the tenure ends with nothing queued — the window in which the store
// must not touch what Commit reads lock-free, and MaybeRoll is still to
// run.
func TestLeadingSpansDesignationAndBatch(t *testing.T) {
	s := newTestStore()
	s.comm.Apply = nil
	leading := func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.comm.leading
	}
	gate := make(chan struct{})
	var rolledWhileLeading atomic.Bool
	s.comm.Commit = func(batch []*testAppend) error {
		s.commits.Add(1)
		<-gate // a leader parked mid-fsync
		return nil
	}
	s.comm.MaybeRoll = func() { rolledWhileLeading.Store(s.comm.leading) }
	if leading() {
		t.Fatal("an idle committer reports a leader")
	}
	a := &testAppend{rec: "r"}
	if err := s.comm.Enqueue(a); err != nil {
		t.Fatal(err)
	}
	if !leading() {
		t.Fatal("a designated leader that has not come back yet does not count")
	}
	awaitDone := make(chan error, 1)
	go func() { awaitDone <- s.comm.Await(a) }()
	for s.commits.Load() == 0 {
		runtime.Gosched() // leader is inside Commit now
	}
	if !leading() {
		t.Fatal("a batch in flight does not count")
	}
	close(gate)
	if err := <-awaitDone; err != nil {
		t.Fatal(err)
	}
	if !rolledWhileLeading.Load() {
		t.Fatal("MaybeRoll ran outside the leader's tenure")
	}
	if leading() {
		t.Fatal("the tenure ended with nothing queued, yet a leader is reported")
	}
}

// TestTwoPhaseStress hammers Enqueue/Await from many goroutines mixed
// with one-phase appends under the race detector.
func TestTwoPhaseStress(t *testing.T) {
	s := newTestStore()
	const workers, each = 8, 64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if w%2 == 0 {
					a := &testAppend{rec: "r"}
					if err := s.comm.Enqueue(a); err != nil {
						t.Errorf("enqueue: %v", err)
						return
					}
					if err := s.comm.Await(a); err != nil {
						t.Errorf("await: %v", err)
						return
					}
				} else if err := s.append("r"); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if r := s.records.Load(); r != workers*each {
		t.Fatalf("committed %d, want %d", r, workers*each)
	}
}

// TestCommitErrorPropagatesToWholeBatch: a failed batch fails every
// appender in it and applies nothing.
func TestCommitErrorPropagatesToWholeBatch(t *testing.T) {
	s := newTestStore()
	errDisk := errors.New("disk gone")
	s.comm.Commit = func(batch []*testAppend) error { return errDisk }
	s.mu.Lock()
	s.comm.leading = true
	s.mu.Unlock()
	errs := make(chan error, 3)
	for i := 0; i < 3; i++ {
		go func() { errs <- s.append("r") }()
	}
	for {
		s.mu.Lock()
		queued := len(s.comm.queue)
		s.mu.Unlock()
		if queued == 3 {
			break
		}
		runtime.Gosched()
	}
	s.mu.Lock()
	if err := s.comm.lead(nil); !errors.Is(err, errDisk) {
		t.Fatalf("caretake: %v, want %v", err, errDisk)
	}
	for i := 0; i < 3; i++ {
		if err := <-errs; !errors.Is(err, errDisk) {
			t.Fatalf("batched append: %v, want %v", err, errDisk)
		}
	}
	if a := s.applied.Load(); a != 0 {
		t.Fatalf("%d records applied from a failed batch", a)
	}
}

// TestSealRunsWhereNoCommitIsInFlight pins the seal hand-off: with no
// leader SealLocked rolls at once; behind a batch in flight it waits,
// and the leader rolls at its batch tail, after Apply; a failed batch or
// a close answers the seal with that error and the roll never runs.
func TestSealRunsWhereNoCommitIsInFlight(t *testing.T) {
	s := newTestStore()
	var rolls, appliedAtRoll atomic.Uint64
	roll := func() error {
		rolls.Add(1)
		appliedAtRoll.Store(s.applied.Load())
		return nil
	}
	seal := func() error {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.comm.SealLocked(roll)
	}
	if err := seal(); err != nil || rolls.Load() != 1 {
		t.Fatalf("idle seal: %v, %d rolls", err, rolls.Load())
	}

	// gated parks the next commit until its verdict arrives.
	gated := func() (entered chan struct{}, verdict chan error) {
		entered, verdict = make(chan struct{}), make(chan error)
		inner := s.comm.Commit
		s.comm.Commit = func(batch []*testAppend) error {
			s.comm.Commit = inner
			close(entered)
			if err := <-verdict; err != nil {
				return err
			}
			return inner(batch)
		}
		return entered, verdict
	}
	waitAsked := func() {
		for asked := false; !asked; runtime.Gosched() {
			s.mu.Lock()
			asked = s.comm.sealDone != nil
			s.mu.Unlock()
		}
	}

	entered, verdict := gated()
	appended := make(chan error, 1)
	go func() { appended <- s.append("r") }()
	<-entered
	sealed := make(chan error, 1)
	go func() { sealed <- seal() }()
	waitAsked()
	if rolls.Load() != 1 {
		t.Fatal("the seal rolled while a commit was in flight")
	}
	verdict <- nil
	if err := <-sealed; err != nil || rolls.Load() != 2 || appliedAtRoll.Load() != 1 {
		t.Fatalf("seal behind a batch: %v, %d rolls, %d applied at the roll; want nil, 2, 1",
			err, rolls.Load(), appliedAtRoll.Load())
	}
	must(t, <-appended)

	errDisk := errors.New("disk gone")
	entered, verdict = gated()
	go func() { appended <- s.append("r") }()
	<-entered
	go func() { sealed <- seal() }()
	waitAsked()
	verdict <- errDisk
	if err := <-sealed; !errors.Is(err, errDisk) || rolls.Load() != 2 {
		t.Fatalf("seal behind a failed batch: %v, %d rolls; want %v and no roll", err, rolls.Load(), errDisk)
	}
	if err := <-appended; !errors.Is(err, errDisk) {
		t.Fatalf("append of the failed batch: %v", err)
	}

	s.mu.Lock()
	s.comm.leading = true // a leader that will never come back
	s.mu.Unlock()
	go func() { sealed <- seal() }()
	waitAsked()
	s.mu.Lock()
	s.closed = true
	s.comm.FailQueuedLocked(errTestClosed)
	s.mu.Unlock()
	if err := <-sealed; !errors.Is(err, errTestClosed) || rolls.Load() != 2 {
		t.Fatalf("seal across a close: %v, %d rolls", err, rolls.Load())
	}
	if err := seal(); !errors.Is(err, errTestClosed) {
		t.Fatalf("seal of a closed store: %v", err)
	}
}
