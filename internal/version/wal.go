package version

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"blobseer/internal/seglog"
	"blobseer/internal/wire"
)

// The write-ahead log makes the version manager's state durable across
// restarts — an extension: the paper's prototype kept version state in
// memory and listed failure handling as future work. Every state-changing
// event (create, branch, assign, complete, abort) is enqueued to the log
// and applied under the handler's locks, and the handler acknowledges the
// client only after the event is durable (two-phase append: the shard is
// free while the leader sits in the fsync). A commit failure wedges the
// log fail-stop, so the durable history is always a prefix of the apply
// order and a manager restarted on the same log continues exactly where
// the previous incarnation stopped — at worst dropping a suffix of
// unacknowledged events: published
// snapshots stay published, in-flight updates stay in flight (and are
// swept by the dead-writer timeout if their writer died with the crash —
// enable DeadWriterTimeout together with WALPath, or an unfinished update
// can block publication forever, just as a crashed client could).
//
// The log is segmented: records append to the active segment file
// (<base>.000001, <base>.000002, …) and the committer rolls to a fresh
// segment once the active one exceeds segBytes. Rolling is what makes
// compaction possible — the checkpointer (see checkpoint.go) serializes
// the full state into <base>.snapshot and deletes the segments the
// snapshot covers, so recovery loads the snapshot and replays only the
// tail segments instead of the entire history.
//
// Record layout (little-endian), following the page store's log format:
//
//	uint32 magic | uint32 dataLen | uint32 crc32(data) | data
//
// where data is a wire-encoded event. A torn tail in the final segment
// (crash mid-append) is truncated on recovery; corruption anywhere else
// fails the open.
//
// The segment mechanics — record framing, torn-tail recovery, group
// commit, the snapshot publish sequence — live in internal/seglog,
// shared with the page store and the DHT metadata log. The WAL is the
// headerless dialect: its covered segments are deleted by checkpoints
// rather than rewritten in place, so segments carry no generation stamp
// and records start at offset 0.

const (
	walMagic = 0x5EE5B10C

	// defaultSegmentBytes is the roll threshold when the config leaves
	// WALSegmentBytes zero.
	defaultSegmentBytes = 64 << 20
)

// walFmt is the version WAL's seglog dialect (headerless segments).
var walFmt = &seglog.Format{
	Name:      "version",
	RecMagic:  walMagic,
	SnapMagic: snapMagic,
}

// event kinds.
const (
	walCreate byte = iota + 1
	walBranch
	walAssign
	walComplete
	walAbort
	walExpire // version carries the new retention floor
)

// walEvent is one decoded log record.
type walEvent struct {
	kind     byte
	blob     wire.BlobID // created/branched blob, or the target of the op
	parent   wire.BlobID // walBranch only
	version  wire.Version
	pageSize uint32 // walCreate only
	offset   uint64 // walAssign only
	size     uint64 // walAssign only
	newSize  uint64 // walAssign: blob size after; walBranch: size at branch point
}

func (e *walEvent) encode() []byte {
	w := wire.NewWriter(64)
	w.Uint8(e.kind)
	switch e.kind {
	case walCreate:
		w.Uint64(uint64(e.blob))
		w.Uint32(e.pageSize)
	case walBranch:
		w.Uint64(uint64(e.blob))
		w.Uint64(uint64(e.parent))
		w.Uint64(uint64(e.version))
		w.Uint64(e.newSize)
	case walAssign:
		w.Uint64(uint64(e.blob))
		w.Uint64(uint64(e.version))
		w.Uint64(e.offset)
		w.Uint64(e.size)
		w.Uint64(e.newSize)
	case walComplete, walAbort, walExpire:
		w.Uint64(uint64(e.blob))
		w.Uint64(uint64(e.version))
	default:
		panic(fmt.Sprintf("version: encoding unknown wal event kind %d", e.kind))
	}
	return w.Bytes()
}

func decodeWALEvent(data []byte) (walEvent, error) {
	r := wire.NewReader(data)
	var e walEvent
	e.kind = r.Uint8()
	switch e.kind {
	case walCreate:
		e.blob = wire.BlobID(r.Uint64())
		e.pageSize = r.Uint32()
	case walBranch:
		e.blob = wire.BlobID(r.Uint64())
		e.parent = wire.BlobID(r.Uint64())
		e.version = wire.Version(r.Uint64())
		e.newSize = r.Uint64()
	case walAssign:
		e.blob = wire.BlobID(r.Uint64())
		e.version = wire.Version(r.Uint64())
		e.offset = r.Uint64()
		e.size = r.Uint64()
		e.newSize = r.Uint64()
	case walComplete, walAbort, walExpire:
		e.blob = wire.BlobID(r.Uint64())
		e.version = wire.Version(r.Uint64())
	default:
		return walEvent{}, fmt.Errorf("version: unknown wal event kind %d", e.kind)
	}
	if err := r.Finish(); err != nil {
		return walEvent{}, fmt.Errorf("version: decoding wal event: %w", err)
	}
	return e, nil
}

// errWALClosed is returned to appenders racing a manager shutdown.
var errWALClosed = errors.New("version: wal closed")

// recoveryStats describes what one open of the write-ahead log did: how
// much of the state came from the snapshot and how much had to be
// folded in from tail segments. With compaction running, EventsReplayed
// stays bounded by the checkpoint interval no matter how long the
// manager has been alive.
type recoveryStats struct {
	SnapshotLoaded bool // a valid snapshot seeded the state
	SnapshotBlobs  int  // blobs restored from the snapshot
	SegmentsOnDisk int  // live segments found or created at open
	StaleRemoved   int  // covered/stale segments deleted at open
	EventsReplayed int  // events replayed from tail segments
}

// walOptions configures openLog.
type walOptions struct {
	fsync    bool  // fsync each commit
	segBytes int64 // roll threshold (0 = defaultSegmentBytes)
}

// wal is the open segmented log. Appends are safe for concurrent use
// and group-committed through seglog.Committer: the first appender to
// find no active leader becomes one, takes everything queued with it,
// writes the whole batch with a single WriteAt and at most one fsync,
// and wakes the batch (see internal/seglog/commit.go for the
// one-batch-tenure protocol).
//
// The active-segment fields (f, segIdx, size) are owned by whichever
// goroutine is the exclusive committer; they change under mu (roll,
// close) but are read lock-free inside commit, which is safe because a
// segment never rolls while a commit is in flight: the leader rolls
// after its own batch — for itself, or for a checkpointer that asked —
// and the checkpointer itself only when there is no leader (see seal).
type wal struct {
	base     string        // path prefix; segments live at base.NNNNNN
	fsync    bool          // fsync each commit
	segBytes int64         // roll threshold
	recovery recoveryStats // what this open folded

	mu     sync.Mutex
	f      *os.File // active segment
	segIdx uint64   // index of the active segment
	size   int64    // committed bytes in the active segment
	closed bool
	// sealed counts the records in segments below segIdx; covered, those
	// the published snapshot holds. Their distance from appends is the
	// automatic checkpoint's countdown.
	sealed  uint64
	covered atomic.Uint64

	// comm is the group-commit machinery; it borrows mu, so the WAL's
	// declared lock order is unchanged.
	comm seglog.Committer[*walAppend]

	appends atomic.Uint64 // records accepted
	syncs   atomic.Uint64 // fsyncs issued
}

// walAppend is one queued record and its appender's parking spot.
type walAppend struct {
	rec  []byte
	cell seglog.Cell
}

func (a *walAppend) Cell() *seglog.Cell { return &a.cell }

// folded is what foldLog read off the disk.
type folded struct {
	st    *state
	stale []uint64 // segments the snapshot already covered, still on disk
	live  []uint64 // segments folded over it, ascending and gapless
	stats recoveryStats
}

// foldLog is state = fold(snapshot, segments): it loads the newest valid
// snapshot of the log rooted at base (the empty state without one) and
// runs every event of the segments that follow it through transition.
// Recovery folds everything on disk (end 0), the last segment possibly
// torn by a crash mid-append; a checkpoint folds the sealed segments
// below its cut (end > 0). Nothing on disk changes but a torn tail.
//
// A torn or corrupt snapshot (crash mid-checkpoint, disk fault)
// degrades to folding every segment from the first — only a durably
// renamed snapshot ever justified deleting segments, so the fallback is
// complete unless the disk lost an already-synced file; that case is
// refused below rather than recovered incompletely.
func foldLog(base string, end uint64) (*folded, error) {
	st, snapErr := loadSnapshot(seglog.SnapshotPath(base)) // nil without a usable one
	segs, err := walFmt.ListSegments(base)
	if err != nil {
		return nil, err
	}
	fl := &folded{st: st}
	first := uint64(1)
	if st != nil {
		first = st.nextSeg
		fl.stats.SnapshotLoaded = true
		fl.stats.SnapshotBlobs = len(st.blobs)
	} else {
		fl.st = &state{nextSeg: 1}
	}
	for _, s := range segs {
		switch {
		case s < first:
			fl.stale = append(fl.stale, s)
		case end == 0 || s < end:
			fl.live = append(fl.live, s)
		}
	}
	live := fl.live
	if st == nil {
		// Without a usable snapshot the fold needs the history from
		// segment 1. Missing earlier segments mean a prior compaction
		// relied on a snapshot the disk has since lost — refuse rather
		// than come up with pre-snapshot blobs silently gone.
		if len(live) > 0 && live[0] != 1 {
			return nil, fmt.Errorf("version: wal segments before %06d are missing and no usable snapshot exists (snapshot: %v)",
				live[0], snapErr)
		}
		if snapErr != nil && len(live) == 0 {
			return nil, fmt.Errorf("version: snapshot unreadable and no wal segments remain: %w", snapErr)
		}
	}
	if len(live) > 0 {
		if st != nil && live[0] != first {
			return nil, fmt.Errorf("version: wal segment %06d missing (snapshot covers up to it, oldest present is %06d)",
				first, live[0])
		}
		for i, s := range live {
			if s != live[0]+uint64(i) {
				return nil, fmt.Errorf("version: wal segment %06d missing (gap before %06d)",
					live[0]+uint64(i), s)
			}
		}
	}
	for i, s := range live {
		n, err := fl.st.foldSegment(seglog.SegmentPath(base, s), end == 0 && i == len(live)-1)
		if err != nil {
			return nil, err
		}
		fl.stats.EventsReplayed += n
	}
	return fl, nil
}

// foldSegment applies every record of one segment file to st and counts
// them. A torn tail is truncated away when allowTorn is set (the final
// segment — a crash mid-append); anywhere else a short or corrupt record
// fails the fold, as does an event that does not follow from the state.
func (st *state) foldSegment(path string, allowTorn bool) (events int, err error) {
	err = scanSegment(path, allowTorn, func(e walEvent) error {
		if _, err := transition(st, e, 0); err != nil {
			return fmt.Errorf("%w (record %d of %s)", err, events, path)
		}
		events++
		return nil
	})
	return events, err
}

// scanSegment decodes one segment file's records in order.
func scanSegment(path string, allowTorn bool, visit func(walEvent) error) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return fmt.Errorf("version: open wal segment: %w", err)
	}
	defer f.Close()
	_, err = walFmt.Scan(f, path, allowTorn, func(payload []byte, _ int64) error {
		e, err := decodeWALEvent(payload)
		if err != nil {
			return err
		}
		return visit(e)
	})
	return err
}

// openLog opens (creating if needed) the segmented log rooted at path
// and returns it with the state its disk folds to (see foldLog): it
// deletes segments the snapshot covers (a compaction crash can leave
// them behind) and opens the highest segment for appending.
func openLog(path string, opts walOptions) (*wal, *state, error) {
	if opts.segBytes <= 0 {
		opts.segBytes = defaultSegmentBytes
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, nil, fmt.Errorf("version: create wal dir: %w", err)
	}
	if info, err := os.Stat(path); err == nil && info.Mode().IsRegular() {
		return nil, nil, fmt.Errorf("version: %s is a pre-segmentation single-file log, unsupported", path)
	}
	// Fold before touching anything on disk, so a refused open never
	// destroys segments that could aid recovery.
	fl, err := foldLog(path, 0)
	if err != nil {
		return nil, nil, err
	}
	os.Remove(seglog.SnapshotTmpPath(path)) // a leftover tmp is garbage
	stats := fl.stats
	for _, s := range fl.stale {
		// Covered by the snapshot; a crash between the snapshot rename
		// and the deletes leaves them behind.
		if err := os.Remove(seglog.SegmentPath(path, s)); err != nil {
			return nil, nil, fmt.Errorf("version: remove stale wal segment: %w", err)
		}
		stats.StaleRemoved++
	}

	active := fl.st.nextSeg
	if n := len(fl.live); n > 0 {
		active = fl.live[n-1]
	}
	stats.SegmentsOnDisk = max(len(fl.live), 1) // at least the active segment, created if need be
	f, err := os.OpenFile(seglog.SegmentPath(path, active), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("version: open wal segment: %w", err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("version: stat wal segment: %w", err)
	}
	w := &wal{
		base:     path,
		fsync:    opts.fsync,
		segBytes: opts.segBytes,
		f:        f,
		segIdx:   active,
		size:     info.Size(),
		recovery: stats,
	}
	w.comm = seglog.Committer[*walAppend]{
		Mu:        &w.mu,
		Closed:    func() bool { return w.closed },
		ErrClosed: errWALClosed,
		Commit:    w.commit,
		// Handlers apply state at enqueue time (two-phase append), so a
		// commit failure must wedge the log: letting a later batch succeed
		// would leave a gap a fold rejects. The manager degrades to
		// rejecting mutations with the wedging error.
		FailStop: true,
		MaybeRoll: func() {
			if w.size >= w.segBytes {
				w.rollLocked() // best effort: a failed roll leaves the oversized segment active
			}
		},
	}
	if opts.fsync {
		if err := seglog.SyncDir(filepath.Dir(path)); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("version: sync wal dir: %w", err)
		}
	}
	return w, fl.st, nil
}

// record frames one event for the log.
func record(e walEvent) []byte { return walFmt.Frame(e.encode()) }

// enqueue queues one event for commit and returns without parking —
// phase one of the two-phase append. The caller applies the state change
// under its locks (enqueue order = apply order per blob, because both
// happen in the same critical section), releases them, and parks in
// await. The committer is fail-stop: once any commit fails, every queued
// and future event fails with the same error, so the durable log is
// always a prefix of the enqueue order and a fold never sees per-blob
// gaps.
func (w *wal) enqueue(e walEvent) (*walAppend, error) {
	a := &walAppend{rec: record(e)}
	if err := w.comm.Enqueue(a); err != nil {
		return nil, err
	}
	return a, nil
}

// await parks until an enqueued event is durable — phase two. Callers
// hold no manager locks here, so a shard stays free while the leader
// sits in the fsync.
func (w *wal) await(a *walAppend) error { return w.comm.Await(a) }

// commit appends one batch contiguously to the active segment with a
// single write and at most one fsync. Only one committer runs at a time
// (the leader), so the active-segment fields need no extra
// synchronization. On error w.size is not advanced, the log is wedged —
// the active segment may end in a torn batch, which only the final
// segment may, so a wedged log never rolls — and no state based on the
// batch may be applied.
func (w *wal) commit(batch []*walAppend) error {
	w.appends.Add(uint64(len(batch)))
	var n int
	for _, a := range batch {
		n += len(a.rec)
	}
	out := make([]byte, 0, n)
	for _, a := range batch {
		out = append(out, a.rec...)
	}
	if _, err := w.f.WriteAt(out, w.size); err != nil {
		return fmt.Errorf("version: wal append: %w", err)
	}
	if w.fsync {
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("version: wal fsync: %w", err)
		}
		w.syncs.Add(1)
	}
	w.size += int64(n)
	return nil
}

// seal makes every record committed so far part of a sealed segment and
// returns the cut — the index of the active segment, below which
// nothing changes any more — with the number of records under it. The
// roll goes through the committer's hand-off (seglog.Committer.
// SealLocked), so it never overlaps a commit and handlers never wait for
// it; a wedged or closed log refuses. Records enqueued but not yet
// committed land above the cut, which is fine: their state is not in
// what the cut folds to. Called by the checkpointer, one at a time.
func (w *wal) seal() (cut, records uint64, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	err = w.comm.SealLocked(func() error {
		if w.size > 0 {
			return w.rollLocked()
		}
		return nil
	})
	// Every segment below the active one is sealed, whoever rolled last.
	return w.segIdx, w.sealed, err
}

// uncovered counts the records logged since the published snapshot's
// cut: the automatic checkpoint's countdown.
func (w *wal) uncovered() uint64 { return w.appends.Load() - w.covered.Load() }

// rollLocked closes the active segment and opens the next one. Called
// with w.mu held, and only when no commit is in flight: by the committer
// itself after its batch, or through the committer's seal hand-off (see
// seal). Events never span segments, so each segment folds
// independently.
func (w *wal) rollLocked() error {
	if w.closed {
		return errWALClosed
	}
	next := w.segIdx + 1
	f, err := os.OpenFile(seglog.SegmentPath(w.base, next), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("version: roll wal segment: %w", err)
	}
	if w.fsync {
		// The new segment's directory entry must be durable before any
		// event commits into it, or a crash could lose a whole synced
		// segment while keeping its successor.
		if err := seglog.SyncDir(filepath.Dir(w.base)); err != nil {
			f.Close()
			return fmt.Errorf("version: sync wal dir: %w", err)
		}
	}
	old := w.f
	w.f = f
	w.segIdx = next
	w.size = 0
	// No commit is in flight: every record so far is below next.
	w.sealed = w.appends.Load()
	old.Close() // contents already durable (commit fsyncs); ignore best-effort close
	return nil
}

// close is idempotent and nil-safe. Queued appenders that no leader has
// taken yet fail with errWALClosed; a leader mid-commit sees its file
// operations fail and delivers that error to its batch.
func (w *wal) close() error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	if w.closed || w.f == nil {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	w.comm.FailQueuedLocked(errWALClosed)
	f := w.f
	w.mu.Unlock()
	return f.Close()
}
