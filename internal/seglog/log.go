package seglog

import (
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// Log is the state-machine log behind the version manager's write-ahead
// log (internal/version): its owner applies each record to its live
// state under its own locks when it enqueues it, then awaits durability.
// The open and each checkpoint fold the snapshot and the segments after
// it through the owner's Machine, off the disk.
//
// Segments are headerless and never rewritten: a checkpoint folds the
// sealed segments, below a cut at a segment boundary, over the previous
// snapshot, publishes the result by atomic rename, and only then deletes
// the segments it covers. A crash leaves the old snapshot with all its
// segments, or the new one with at worst extra segments, which the next
// open deletes as stale.
type Log struct {
	fs     fileSystem
	base   string
	ft     *Format
	opts   LogOptions
	closed atomic.Bool
	// errClosed is ErrClosed under the machine's name.
	errClosed error

	// mu guards the writer state: the active segment, the group-commit
	// queue and shutdown. The committer reads the active segment lock-free:
	// it never rolls while a commit is in flight. The lock order, as the
	// lockorder analyzer (cmd/blobseer-vet) enforces it:
	//
	//blobseer:lockorder ckptMu < Log.mu
	mu     sync.Mutex
	active file
	idx    uint64 // index of the active segment
	size   int64  // committed bytes in the active segment
	comm   committer[*Pending]
	appender

	// ckptMu serializes checkpoints and is Close's barrier. win is the
	// window segments are read through, by the open and under ckptMu.
	// checkpointFold, bound at open, is the Machine's part of a
	// checkpoint: the next snapshot, and the segments it covers.
	ckptMu         sync.Mutex
	win            []byte
	checkpointFold func(cut uint64) (payload []byte, covered []uint64, err error)
	ckptRuns       atomic.Uint64
	ckptFailures   atomic.Uint64 // background passes that failed
	maint          *maintainer
	rec            LogStats // what the open recovered
}

// Machine is everything one Log decides: the magics that brand its
// files (SegMagic zero: headerless segments), and how its snapshot and
// records fold into its state S.
type Machine[S any] struct {
	Format
	Empty  func() S                                            // the state without a snapshot
	Decode func(payload []byte) (st S, next uint64, err error) // a snapshot, and the first segment it does not cover
	Encode func(st S, next uint64) []byte                      // the snapshot covering the segments below next
	Apply  func(st S, payload []byte) error                    // fold one record; payload is valid until it returns
	Len    func(st S) int                                      // what st holds, for LogStats.SnapshotEntries
}

// LogOptions tunes a Log. The zero value is unsynced appends, 64 MB
// segments and no automatic checkpoints.
type LogOptions struct {
	Sync         bool  // fsync each commit (concurrent appenders share fsyncs)
	SegmentBytes int64 // roll threshold (default 64 MB)
	// CheckpointEvery, when positive, checkpoints once that many records
	// (appended, or folded by the open) are past the published snapshot.
	CheckpointEvery int
	// Fault, a test seam, is called with each checkpoint stage below; an
	// error aborts the checkpoint there, as a process death would.
	Fault func(stage int) error
}

// The checkpoint's stages (fault points), in execution order.
const (
	ckptBegin          = iota // before anything happened
	ckptCaptured              // the fold is built, nothing on disk yet
	ckptTmpWritten            // the tmp snapshot is fully written
	ckptRenamed               // the snapshot is live
	ckptSegmentDeleted        // after each covered segment's delete
)

// LogStats is what a Log reports: its traffic and checkpoints since
// open, and what the open recovered.
type LogStats struct {
	Appends            uint64 // records accepted
	Syncs              uint64 // commit fsyncs (fewer than appends: group commit)
	Uncovered          uint64 // records logged past the published snapshot
	Checkpoints        uint64 // checkpoints published
	CheckpointFailures uint64 // background checkpoint passes that failed

	SnapshotLoaded  bool // a valid snapshot seeded the open's fold
	SnapshotEntries int  // what that snapshot held (Machine.Len)
	Segments        int  // segments the open found or created
	StaleRemoved    int  // segments a snapshot covered that the open deleted
	Replayed        int  // records the open folded from the segments
}

// Pending is one record enqueued to a Log and not yet known durable.
type Pending struct {
	payload []byte
	cell    cell
}

func (p *Pending) slot() *cell { return &p.cell }

// OpenLog opens (creating if needed) the log rooted at path and returns
// it with the state its disk folds to (see fold); it deletes segments the
// snapshot covers, which a crashed checkpoint leaves behind. An empty
// path opens a fresh log in memory, in a file system of its own.
func OpenLog[S any](path string, m *Machine[S], opts LogOptions) (*Log, S, error) {
	var fsys fileSystem = osFS{}
	if path == "" {
		fsys, path = newMemFS(), "mem"
	}
	return openLog(fsys, path, m, opts)
}

func openLog[S any](fsys fileSystem, path string, m *Machine[S], opts LogOptions) (*Log, S, error) {
	var none S
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = defaultSegmentBytes
	}
	if opts.Fault == nil {
		opts.Fault = func(int) error { return nil }
	}
	if err := fsys.MkdirAll(filepath.Dir(path)); err != nil {
		return nil, none, fmt.Errorf("%s: create dir: %w", m.Name, err)
	}
	if err := m.refuseSingleFile(fsys, path); err != nil {
		return nil, none, err
	}
	l := &Log{fs: fsys, base: path, ft: &m.Format, opts: opts, errClosed: fmt.Errorf("%s: %w", m.Name, ErrClosed)}
	l.checkpointFold = func(cut uint64) ([]byte, []uint64, error) {
		fl, err := fold(l, m, cut)
		if err != nil {
			return nil, nil, err
		}
		return m.Encode(fl.st, cut), append(fl.stale, fl.live...), nil
	}
	// Fold before touching anything on disk, so a refused open never
	// destroys segments that could aid recovery.
	fl, err := fold(l, m, 0)
	if err != nil {
		return nil, none, err
	}
	removeTmp(fsys, path)
	for _, s := range fl.stale {
		if err := fsys.Remove(SegmentPath(path, s)); err != nil {
			return nil, none, fmt.Errorf("%s: remove stale segment: %w", m.Name, err)
		}
		fl.stats.StaleRemoved++
	}
	l.idx = fl.next
	if n := len(fl.live); n > 0 {
		l.idx = fl.live[n-1]
	}
	fl.stats.Segments = max(len(fl.live), 1) // at least the active segment, created if need be
	if l.active, err = m.createSegment(fsys, SegmentPath(path, l.idx), opts.Sync); err != nil {
		return nil, none, err
	}
	if l.size, err = l.active.Size(); err != nil {
		l.active.Close()
		return nil, none, fmt.Errorf("%s: stat segment: %w", m.Name, err)
	}
	l.rec = fl.stats
	l.replayed = uint64(fl.stats.Replayed)
	l.comm = committer[*Pending]{
		Mu:        &l.mu,
		Closed:    l.closed.Load,
		ErrClosed: l.errClosed,
		Commit:    l.commit,
		FailStop:  true, // the owner applies at enqueue: a gap would not fold
		MaybeRoll: func() {
			if l.size >= l.opts.SegmentBytes {
				l.rollLocked() // best effort: a failed roll leaves the oversized segment active
			}
		},
	}
	if opts.CheckpointEvery > 0 {
		l.maint = startMaintainer(l.maintainPass, l.due(opts.CheckpointEvery))
	}
	return l, fl.st, nil
}

// logFold is what fold read off the disk.
type logFold[S any] struct {
	st    S
	next  uint64   // first segment the snapshot does not cover
	stale []uint64 // segments the snapshot covers, still on disk
	live  []uint64 // segments folded over it, ascending and gapless
	stats LogStats
}

// fold is state = fold(snapshot, segments): the newest valid snapshot
// (m.Empty without one) with every record of the segments after it
// applied — all of them at open (end 0), the last one's torn tail
// truncated away, or the sealed ones below a checkpoint's cut (end > 0).
// A torn or corrupt snapshot degrades to folding every segment from the
// first; when a checkpoint already deleted some, the fold is refused
// rather than recovered incompletely.
func fold[S any](l *Log, m *Machine[S], end uint64) (*logFold[S], error) {
	name := m.Name
	fl := &logFold[S]{}
	data, snapErr := m.loadSnapshotFile(l.fs, SnapshotPath(l.base))
	if snapErr == nil && data != nil {
		fl.st, fl.next, snapErr = m.Decode(data)
		fl.stats.SnapshotLoaded = snapErr == nil
	}
	if fl.stats.SnapshotLoaded {
		fl.stats.SnapshotEntries = m.Len(fl.st)
	} else {
		fl.st, fl.next = m.Empty(), 1
	}
	segs, err := m.listSegments(l.fs, l.base)
	if err != nil {
		return nil, err
	}
	for _, s := range segs {
		switch {
		case s < fl.next:
			fl.stale = append(fl.stale, s)
		case end == 0 || s < end:
			fl.live = append(fl.live, s)
		}
	}
	live := fl.live
	if snapErr != nil && len(live) == 0 {
		return nil, fmt.Errorf("%s: snapshot unreadable and no segments remain: %w", name, snapErr)
	}
	for i, s := range live {
		// Gapless from the snapshot's cut, or from 1 without a snapshot.
		if want := fl.next + uint64(i); s != want {
			return nil, fmt.Errorf("%s: segment %06d missing, %06d present (snapshot: %v)", name, want, s, snapErr)
		}
		n, err := foldSegment(l, m, fl.st, SegmentPath(l.base, s), end == 0 && i == len(live)-1)
		if err != nil {
			return nil, err
		}
		fl.stats.Replayed += n
	}
	return fl, nil
}

// foldSegment applies every record of one segment file to st and counts
// them; a torn tail is truncated away when allowTorn is set.
func foldSegment[S any](l *Log, m *Machine[S], st S, path string, allowTorn bool) (records int, err error) {
	f, err := l.fs.OpenFile(path, 0)
	if err != nil {
		return 0, fmt.Errorf("%s: open segment: %w", m.Name, err)
	}
	defer f.Close()
	_, _, err = m.scanFrames(&l.win, f, path, allowTorn, -1, func(payload []byte, _ int64, _ uint32) error {
		if err := m.Apply(st, payload); err != nil {
			return fmt.Errorf("%w (record %d of %s)", err, records, path)
		}
		records++
		return nil
	})
	return records, err
}

// Enqueue queues one record — phase one of the two-phase append (see
// committer); payload is the Log's until its Await returns. The log is
// fail-stop: once a commit fails, every queued and future record fails
// with that error, so the durable log is a prefix of the enqueue order.
func (l *Log) Enqueue(payload []byte) (*Pending, error) {
	p := &Pending{payload: payload}
	if err := l.comm.Enqueue(p); err != nil {
		return nil, err
	}
	return p, nil
}

// Await parks until p is durable and returns its outcome — phase two.
// Every record Enqueue accepted must be awaited: an unawaited leader
// stalls the queue.
func (l *Log) Await(p *Pending) error {
	if err := l.comm.Await(p); err != nil {
		return err
	}
	if l.due(l.opts.CheckpointEvery) {
		l.maint.nudge()
	}
	return nil
}

// commit frames one batch into the batch buffer and appends it to the
// active segment. On error the log is wedged with the segment perhaps
// ending in a torn batch, which only the last segment may: it never
// rolls again.
func (l *Log) commit(batch []*Pending) error {
	n := 0
	for _, p := range batch {
		n += FrameHeaderSize + len(p.payload)
	}
	out := l.frameBuf(len(batch), n)
	for _, p := range batch {
		out = appendFrame(out, l.ft.RecMagic, p.payload)
	}
	if err := l.writeBatch(l.ft, l.active, l.size, out, l.opts.Sync); err != nil {
		return err
	}
	l.size += int64(n)
	return nil
}

// rollLocked closes the active segment and opens the next. Called with
// mu held and no commit in flight: by the leader after its batch, or
// through the committer's seal hand-off.
func (l *Log) rollLocked() error {
	if l.closed.Load() {
		return l.errClosed
	}
	f, err := l.ft.createSegment(l.fs, SegmentPath(l.base, l.idx+1), l.opts.Sync)
	if err != nil {
		return err
	}
	l.active.Close() // its records are as durable as the commits made them
	l.active, l.idx, l.size = f, l.idx+1, 0
	return nil
}

// seal rolls through the committer's hand-off (SealLocked), so every
// record committed so far is below the cut it returns — the active
// segment's index — with the records logged by then. A wedged or closed
// log refuses.
func (l *Log) seal() (cut, records uint64, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	err = l.comm.SealLocked(func() error {
		if l.size > 0 {
			if err := l.rollLocked(); err != nil {
				return err
			}
		}
		cut, records = l.idx, l.logged()
		return nil
	})
	return cut, records, err
}

// Checkpoint folds every record logged before this call into an
// atomically renamed snapshot and deletes the segments it covers. It
// runs beside traffic, sharing only the segment roll with appenders. A
// failed one keeps the countdown, so the next automatic pass retries.
func (l *Log) Checkpoint() error {
	l.ckptMu.Lock()
	defer l.ckptMu.Unlock()
	if l.closed.Load() {
		return l.errClosed
	}
	if err := l.opts.Fault(ckptBegin); err != nil {
		return err
	}
	cut, records, err := l.seal()
	if err != nil {
		return err
	}
	payload, covered, err := l.checkpointFold(cut)
	if err != nil {
		return err
	}
	if err := l.opts.Fault(ckptCaptured); err != nil {
		return err
	}
	if err := l.ft.publishSnapshot(l.fs, l.base, payload, l.opts.Sync,
		func() error { return l.opts.Fault(ckptTmpWritten) },
		func() error { return l.opts.Fault(ckptRenamed) },
	); err != nil {
		return err
	}
	// The snapshot is live: consume the countdown before the
	// (restartable) segment deletes.
	l.covered.Store(records)
	for _, s := range covered {
		if err := l.fs.Remove(SegmentPath(l.base, s)); err != nil {
			return fmt.Errorf("%s: delete covered segment: %w", l.ft.Name, err)
		}
		if err := l.opts.Fault(ckptSegmentDeleted); err != nil {
			return err
		}
	}
	if l.opts.Sync {
		if err := l.fs.SyncDir(filepath.Dir(l.base)); err != nil {
			return fmt.Errorf("%s: sync dir after checkpoint: %w", l.ft.Name, err)
		}
	}
	l.ckptRuns.Add(1)
	return nil
}

// maintainPass is one wake-up of the background checkpointer.
func (l *Log) maintainPass() bool {
	if l.closed.Load() {
		return false
	}
	if l.due(l.opts.CheckpointEvery) {
		countFailure(&l.ckptFailures, l.Checkpoint())
	}
	return true
}

// Stats reports the log's counters and what its open recovered.
func (l *Log) Stats() LogStats {
	st := l.rec
	st.Appends, st.Syncs, st.Uncovered = l.appends.Load(), l.syncs.Load(), l.uncovered()
	st.Checkpoints, st.CheckpointFailures = l.ckptRuns.Load(), l.ckptFailures.Load()
	return st
}

// GateNextCommit is KV.GateNextCommit for a Log, a test hook.
func (l *Log) GateNextCommit() (entered <-chan struct{}, release chan<- error) {
	return l.comm.gateNext()
}

// SealWaiting reports whether a checkpoint waits for a batch's leader to
// roll for it — a test hook.
func (l *Log) SealWaiting() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.comm.sealDone != nil
}

// Close is idempotent and nil-safe: queued appenders fail, an in-flight
// checkpoint finishes first, then the active segment closes.
func (l *Log) Close() error {
	if l == nil || l.closed.Swap(true) {
		return nil
	}
	l.mu.Lock()
	l.comm.FailQueuedLocked(l.errClosed)
	l.mu.Unlock()
	l.maint.stop()
	l.ckptMu.Lock()
	defer l.ckptMu.Unlock()
	return l.active.Close()
}
