package version

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"blobseer/internal/rpc"
	"blobseer/internal/seglog"
	"blobseer/internal/transport"
	"blobseer/internal/vclock"
	"blobseer/internal/wire"
)

// ManagerConfig configures the version manager service.
type ManagerConfig struct {
	// Sched drives SYNC waiters and the dead-writer sweeper; defaults to
	// the real clock.
	Sched vclock.Scheduler
	// DeadWriterTimeout aborts updates whose writer neither completed nor
	// aborted within this window, so a crashed client cannot stall
	// publication forever. Zero disables the sweeper (the paper leaves
	// failure handling to future work; this is an extension).
	DeadWriterTimeout time.Duration
	// SweepEvery is the sweeper period (default DeadWriterTimeout/4).
	SweepEvery time.Duration
	// WALPath, when non-empty, makes version state durable: every
	// state-changing event is appended to a write-ahead log at this path
	// before it takes effect, and a manager started on an existing log
	// resumes exactly where the previous incarnation stopped. Pair it
	// with DeadWriterTimeout so updates whose writer died with the crash
	// are eventually swept instead of blocking publication. (Extension:
	// the paper's prototype kept version state in memory.)
	WALPath string
	// WALSync forces an fsync before any event takes effect. Concurrent
	// handlers share fsyncs through group commit.
	WALSync bool
	// WALSegmentBytes rolls the write-ahead log into a fresh segment file
	// once the active one exceeds this many bytes (default 64 MB).
	// Compaction deletes only whole segments covered by a checkpoint, so
	// smaller segments reclaim space at a finer grain for more files.
	WALSegmentBytes int64
	// CheckpointEvery, when positive, checkpoints automatically after
	// that many logged events: the full version state is serialized into
	// an atomically renamed snapshot file and the segments it covers are
	// deleted, bounding both the log's disk footprint and the restart
	// replay work by the interval. Zero disables automatic checkpoints;
	// Checkpoint() remains available on demand either way.
	CheckpointEvery int
	// RetainVersions is the keep-last-N retention policy: EXPIRE requests
	// are clamped so at least this many of a blob's newest own published
	// versions stay readable (default 1 — the newest readable snapshot
	// can never expire regardless).
	RetainVersions int
}

// Manager is the running version manager service.
//
// Concurrency regime: each blob's state machine and SYNC watchers live in
// a blobShard guarded by that shard's mutex, so updates to different
// blobs never contend. The registry mapping ids to shards is striped with
// RW locks and touched only by lookup, create, and branch. Lock order:
// a stripe lock is innermost and never held while acquiring a shard
// mutex; a second shard mutex is only ever taken for a lineage ancestor,
// which always has a smaller blob id than its descendants, so shard-lock
// cycles cannot form.
type Manager struct {
	cfg   ManagerConfig
	sched vclock.Scheduler
	srv   *rpc.Server
	mux   *rpc.Mux
	log   *wal // nil when not durable

	// stateMu makes checkpoints a consistent cut: every mutating handler
	// holds it shared from before its event is enqueued until after the
	// state change applies (the durability await happens after release),
	// and the checkpointer holds it exclusively only while quiescing the
	// committer, rolling the log segment and resolving the dirty blobs.
	// Readers and parked SYNC waiters never touch it. Lock order:
	// stateMu, then shard mutexes, then wal internals.
	stateMu sync.RWMutex

	stripes  [registryStripes]registryStripe
	nextBlob atomic.Uint64 // last allocated blob id

	// Checkpoint machinery (see checkpoint.go). ckptMu serializes
	// checkpoint runs and doubles as the shutdown barrier; ckptTrack
	// owns the dirty-blob set and the events-since-last-cut countdown
	// for incremental capture; ckpt is the background checkpointer
	// goroutine; capturePause records the last capture's stop-the-world
	// duration for the A7 ablation.
	ckptMu       sync.Mutex
	ckptTrack    seglog.Tracker[wire.BlobID, *blobState]
	ckptRuns     atomic.Uint64
	capturePause atomic.Int64
	ckpt         *seglog.Maintainer
	recStats     RecoveryStats

	// crashHook is the test-only checkpoint fault injector.
	crashHook func(point string) error

	cancel context.CancelFunc // stops the sweeper; nil without one
	wg     *vclock.WaitGroup  // joins the sweeper on Close

	closed    atomic.Bool
	closeOnce sync.Once
}

// registryStripes shards the blob-id registry. Only blob lookup, create
// and branch touch the registry; all per-blob work runs under that
// blob's own mutex.
const registryStripes = 16

// registryStripe is one slice of the id-to-shard map.
type registryStripe struct {
	mu    sync.RWMutex
	blobs map[wire.BlobID]*blobShard
}

// blobShard pairs one blob's state machine with the mutex and the parked
// SYNC watchers that guard it.
type blobShard struct {
	mu       sync.Mutex
	state    *blobState
	watchers map[wire.Version][]vclock.Event // version -> events to fire
}

func newShard(b *blobState) *blobShard {
	return &blobShard{state: b, watchers: make(map[wire.Version][]vclock.Event)}
}

// ServeManager starts the version manager on ln. It panics if cfg asks
// for a write-ahead log that cannot be opened; use ServeManagerDurable to
// handle that error.
func ServeManager(ln transport.Listener, cfg ManagerConfig) *Manager {
	m, err := ServeManagerDurable(ln, cfg)
	if err != nil {
		panic("version: " + err.Error())
	}
	return m
}

// ServeManagerDurable is ServeManager with the write-ahead log's open or
// replay error reported instead of panicking.
func ServeManagerDurable(ln transport.Listener, cfg ManagerConfig) (*Manager, error) {
	if cfg.Sched == nil {
		cfg.Sched = vclock.NewReal()
	}
	if cfg.SweepEvery <= 0 {
		cfg.SweepEvery = cfg.DeadWriterTimeout / 4
	}
	m := &Manager{cfg: cfg, sched: cfg.Sched}
	for i := range m.stripes {
		m.stripes[i].blobs = make(map[wire.BlobID]*blobShard)
	}
	if cfg.WALPath != "" {
		log, rec, err := openWAL(cfg.WALPath, walOptions{
			fsync:    cfg.WALSync,
			segBytes: cfg.WALSegmentBytes,
		})
		if err != nil {
			return nil, err
		}
		now := int64(cfg.Sched.Now())
		blobs := make(map[wire.BlobID]*blobState)
		var next wire.BlobID
		if rec.snap != nil {
			next = rec.snap.nextBlob
			for _, b := range rec.snap.blobs {
				// Snapshots do not store assignedAt (it is restart-relative):
				// the sweeper measures staleness from this incarnation.
				for _, u := range b.inflight {
					u.assignedAt = now
				}
				blobs[b.id] = b
				if b.id > next {
					next = b.id
				}
			}
		}
		rnext, err := replay(rec.events, blobs, now)
		if err != nil {
			log.close()
			return nil, err
		}
		if rnext > next {
			next = rnext
		}
		m.log = log
		m.recStats = rec.stats
		m.nextBlob.Store(uint64(next))
		// Branch pins are derived state: every blob with a parent entry in
		// its lineage pins its branch point on the owner of that snapshot,
		// so EXPIRE keeps refusing to cut the ground from under branches
		// after a restart.
		for _, b := range blobs {
			if len(b.lineage) < 2 {
				continue
			}
			if owner := blobs[b.lineage[1].Blob]; owner != nil {
				owner.registerPin(b.id, b.lineage[0].MinVersion-1)
			}
		}
		// Pre-serve: no handler can race these inserts.
		for id, b := range blobs {
			m.stripe(id).blobs[id] = newShard(b)
		}
	}
	m.mux = m.newMux()
	m.srv = rpc.Serve(ln, cfg.Sched, m.mux)
	m.wg = vclock.NewWaitGroup(cfg.Sched)
	if cfg.DeadWriterTimeout > 0 {
		// The manager is the sweeper's lifecycle root: Close cancels the
		// context, which interrupts the sweep sleep, then joins.
		//blobseer:ctx lifecycle root: Close cancels and joins the sweeper
		ctx, cancel := context.WithCancel(context.Background())
		m.cancel = cancel
		m.wg.Go(func() { m.sweepLoop(ctx) })
	}
	if m.log != nil && cfg.CheckpointEvery > 0 {
		m.ckpt = seglog.NewMaintainer(m.checkpointPass)
		m.ckpt.Start()
	}
	return m, nil
}

// Addr returns the manager's service address.
func (m *Manager) Addr() string { return m.srv.Addr() }

// Apply dispatches one request in-process, bypassing the transport. It is
// the hook for embedded use and for benchmarks that want to measure the
// manager's own concurrency rather than RPC overhead.
func (m *Manager) Apply(ctx context.Context, req wire.Msg) (wire.Msg, error) {
	return m.mux.Handle(ctx, req)
}

// WALStats reports the number of events appended to the write-ahead log
// and the number of fsyncs issued since start (zeros when not durable).
// Group commit shows up as syncs < appends.
func (m *Manager) WALStats() (appends, syncs uint64) {
	return m.log.stats()
}

// Close stops the service and fails parked SYNC waiters. It is
// idempotent and safe with or without a write-ahead log.
func (m *Manager) Close() {
	m.closeOnce.Do(func() {
		// Order matters: the closed flag is set before draining, and
		// handleSync re-checks it under the shard lock before parking, so
		// a waiter either parks before the drain (and is fired here) or
		// observes the flag and fails fast.
		m.closed.Store(true)
		var evs []vclock.Event
		for _, sh := range m.allShards() {
			sh.mu.Lock()
			for _, list := range sh.watchers {
				evs = append(evs, list...)
			}
			sh.watchers = make(map[wire.Version][]vclock.Event)
			sh.mu.Unlock()
		}
		for _, ev := range evs {
			ev.Fire(wire.NewError(wire.CodeUnavailable, "version manager shutting down"))
		}
		m.srv.Close()
		if m.cancel != nil {
			m.cancel()
		}
		_ = m.wg.Wait() // ErrStopped means the scheduler already unwound it
		m.ckpt.Stop()
		// Closing the log under ckptMu is the shutdown barrier: an
		// in-flight checkpoint finishes first (its snapshot is valid and
		// worth keeping), and any later Checkpoint observes the closed
		// flag before touching the log.
		m.ckptMu.Lock()
		m.log.close()
		m.ckptMu.Unlock()
	})
}

func (m *Manager) stripe(id wire.BlobID) *registryStripe {
	return &m.stripes[uint64(id)%registryStripes]
}

// shard looks the blob up in the registry. The stripe lock is released
// before returning: shards are never deleted, so the pointer stays valid.
func (m *Manager) shard(id wire.BlobID) (*blobShard, error) {
	s := m.stripe(id)
	s.mu.RLock()
	sh := s.blobs[id]
	s.mu.RUnlock()
	if sh == nil {
		return nil, wire.NewError(wire.CodeNotFound, "blob %v does not exist", id)
	}
	return sh, nil
}

// allShards snapshots every registered shard.
func (m *Manager) allShards() []*blobShard {
	var out []*blobShard
	for i := range m.stripes {
		s := &m.stripes[i]
		s.mu.RLock()
		for _, sh := range s.blobs {
			out = append(out, sh)
		}
		s.mu.RUnlock()
	}
	return out
}

// register inserts a freshly created or branched shard.
func (m *Manager) register(id wire.BlobID, sh *blobShard) {
	s := m.stripe(id)
	s.mu.Lock()
	s.blobs[id] = sh
	s.mu.Unlock()
}

// noAwait is logEventBegin's result when the manager is not durable.
var noAwait = func() error { return nil }

// logEventBegin enqueues e to the write-ahead log (no-op when not
// durable) and returns the await for its durability — phase one of the
// two-phase append. Callers hold the lock of the shard e mutates (none
// yet exists for a create), so each blob's log order matches its apply
// order even though batches interleave events of different blobs — and
// they hold stateMu shared (see mutate), so a checkpoint capture never
// splits an event from its state change. The handler applies the state
// change under those same locks, releases them, and only then invokes
// the await — the shard is free while the leader sits in the fsync, and
// the client is acknowledged only once the event is durable. Every
// successful begin MUST be awaited (an unawaited designated leader
// stalls the queue), and the enqueued blob is marked dirty for the
// incremental checkpoint capture.
func (m *Manager) logEventBegin(e walEvent) (await func() error, err error) {
	if m.log == nil {
		return noAwait, nil
	}
	a, err := m.log.enqueue(e)
	if err != nil {
		return nil, wire.NewError(wire.CodeUnavailable, "version log: %v", err)
	}
	m.ckptTrack.Mark(e.blob)
	if n := m.cfg.CheckpointEvery; n > 0 && m.ckptTrack.AddEvents(1) >= uint64(n) {
		m.ckpt.Nudge()
	}
	return func() error {
		if err := m.log.await(a); err != nil {
			return wire.NewError(wire.CodeUnavailable, "version log: %v", err)
		}
		return nil
	}, nil
}

// ckptDirty marks a blob dirty for the incremental checkpoint capture —
// for mutations that land on a blob other than the logged event's own
// (a branch pins its lineage owner). Callers hold stateMu shared, so
// the mark cannot slip past a capture cut.
func (m *Manager) ckptDirty(id wire.BlobID) {
	if m.log != nil {
		m.ckptTrack.Mark(id)
	}
}

// mutate marks a state-changing handler region for the checkpointer: the
// returned func must be held from before the handler logs its event
// until after the state change applies, so a checkpoint capture is a
// consistent cut. Read-only handlers (and parked SYNC waiters) skip it.
func (m *Manager) mutate() func() {
	m.stateMu.RLock()
	return m.stateMu.RUnlock
}

// sizeThroughLineage resolves GET_SIZE across branch boundaries: version
// v of blob sh was written under its lineage owner's namespace, and that
// owner's state records its size. The caller holds sh.mu; when the owner
// is a different blob its shard mutex is taken nested, which cannot
// deadlock because lineage owners are strict ancestors and ancestors have
// strictly smaller blob ids (locks are only ever nested child-to-ancestor).
func (m *Manager) sizeThroughLineage(sh *blobShard, v wire.Version) (uint64, bool) {
	owner := sh.state.lineage.Owner(v)
	if owner == sh.state.id {
		return sh.state.sizeOf(v)
	}
	osh, err := m.shard(owner)
	if err != nil {
		return 0, false
	}
	osh.mu.Lock()
	defer osh.mu.Unlock()
	return osh.state.sizeOf(v)
}

// fireWatchersLocked pops and fires the SYNC events for the given
// versions. Must be called with sh.mu held; the returned closure is
// invoked after unlocking.
func (sh *blobShard) fireWatchersLocked(versions []wire.Version) func() {
	if len(versions) == 0 {
		return func() {}
	}
	var evs []vclock.Event
	for _, v := range versions {
		evs = append(evs, sh.watchers[v]...)
		delete(sh.watchers, v)
	}
	return func() {
		for _, ev := range evs {
			ev.Fire(nil)
		}
	}
}

// abortWatchersLocked fails SYNC waiters of aborted versions. Must be
// called with sh.mu held; the returned closure is invoked after unlocking.
func (sh *blobShard) abortWatchersLocked(versions []wire.Version) func() {
	var evs []vclock.Event
	for _, v := range versions {
		evs = append(evs, sh.watchers[v]...)
		delete(sh.watchers, v)
	}
	return func() {
		for _, ev := range evs {
			ev.Fire(wire.NewError(wire.CodeAborted, "version aborted"))
		}
	}
}

// sweepLoop aborts updates from writers that went silent.
func (m *Manager) sweepLoop(ctx context.Context) {
	for {
		if err := vclock.SleepCtx(ctx, m.sched, m.cfg.SweepEvery); err != nil {
			return
		}
		if m.closed.Load() || ctx.Err() != nil {
			return
		}
		release := m.mutate() // sweeper aborts are state changes too
		cutoff := int64(m.sched.Now()) - int64(m.cfg.DeadWriterTimeout)
		var wake []func()
		var awaits []func() error
		for _, sh := range m.allShards() {
			sh.mu.Lock()
			b := sh.state
			var stale []wire.Version
			for _, u := range b.inflight {
				if !u.completed && !u.aborted && u.assignedAt < cutoff {
					stale = append(stale, u.version)
				}
			}
			// Lowest first: its cascade usually covers the rest.
			sort.Slice(stale, func(i, j int) bool { return stale[i] < stale[j] })
			for _, v := range stale {
				if u, ok := b.inflight[v]; !ok || u.aborted {
					continue // a lower stale version's cascade got it
				}
				// Sweeper aborts are durable too; if the enqueue is refused
				// (closed or wedged log) leave the update for the next sweep
				// rather than diverge from the log.
				await, err := m.logEventBegin(walEvent{kind: walAbort, blob: b.id, version: v})
				if err != nil {
					continue
				}
				// Every begun event must be awaited, even if abort then
				// reports an error (it cannot, given the inflight check
				// above — but an unawaited leader would stall the log).
				awaits = append(awaits, await)
				abortedVers, err := b.abort(v)
				if err != nil {
					continue
				}
				wake = append(wake, sh.abortWatchersLocked(abortedVers))
			}
			sh.mu.Unlock()
		}
		release()
		for _, a := range awaits {
			// A durability failure wedges the log fail-stop; the aborts
			// stay applied in memory and the next mutation reports it.
			_ = a()
		}
		for _, fn := range wake {
			fn()
		}
	}
}

func (m *Manager) newMux() *rpc.Mux {
	mux := rpc.NewMux()
	mux.Register(wire.KindPingReq, func(_ context.Context, msg wire.Msg) (wire.Msg, error) {
		return &wire.PingResp{Nonce: msg.(*wire.PingReq).Nonce}, nil
	})
	mux.Register(wire.KindCreateBlobReq, m.handleCreate)
	mux.Register(wire.KindBlobInfoReq, m.handleBlobInfo)
	mux.Register(wire.KindAssignReq, m.handleAssign)
	mux.Register(wire.KindCompleteReq, m.handleComplete)
	mux.Register(wire.KindAbortReq, m.handleAbort)
	mux.Register(wire.KindRecentReq, m.handleRecent)
	mux.Register(wire.KindSizeReq, m.handleSize)
	mux.Register(wire.KindSyncReq, m.handleSync)
	mux.Register(wire.KindBranchReq, m.handleBranch)
	mux.Register(wire.KindExpireReq, m.handleExpire)
	mux.Register(wire.KindGCInfoReq, m.handleGCInfo)
	return mux
}

func (m *Manager) handleCreate(_ context.Context, msg wire.Msg) (wire.Msg, error) {
	req := msg.(*wire.CreateBlobReq)
	ps := req.PageSize
	if ps == 0 || ps&(ps-1) != 0 {
		return nil, wire.NewError(wire.CodeBadRequest,
			"page size %d is not a power of two", ps)
	}
	if m.closed.Load() {
		return nil, wire.NewError(wire.CodeUnavailable, "version manager shutting down")
	}
	release := m.mutate()
	// The id is reserved before logging; if the enqueue fails the id is
	// simply burned (ids are unique, not dense). No other event for this
	// blob can enter the log first, because the id is unknown to clients
	// until the create is durable and acknowledged. The shard registers
	// before the await so a checkpoint capture that covers the enqueued
	// record always sees the blob; if durability then fails, the log is
	// wedged (fail-stop) and the unacknowledged in-memory blob is inert.
	id := wire.BlobID(m.nextBlob.Add(1))
	await, err := m.logEventBegin(walEvent{kind: walCreate, blob: id, pageSize: ps})
	if err != nil {
		release()
		return nil, err
	}
	m.register(id, newShard(newBlobState(id, ps)))
	release()
	if err := await(); err != nil {
		return nil, err
	}
	return &wire.CreateBlobResp{Blob: id}, nil
}

func (m *Manager) handleBlobInfo(_ context.Context, msg wire.Msg) (wire.Msg, error) {
	req := msg.(*wire.BlobInfoReq)
	sh, err := m.shard(req.Blob)
	if err != nil {
		return nil, err
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return &wire.BlobInfoResp{
		PageSize: sh.state.pageSize,
		Lineage:  append(wire.Lineage(nil), sh.state.lineage...),
	}, nil
}

func (m *Manager) handleAssign(_ context.Context, msg wire.Msg) (wire.Msg, error) {
	req := msg.(*wire.AssignReq)
	sh, err := m.shard(req.Blob)
	if err != nil {
		return nil, err
	}
	release := m.mutate()
	sh.mu.Lock()
	// Plan once, log the plan, apply the same plan: the WAL record and the
	// in-memory state cannot diverge.
	plan, err := sh.state.planAssign(req.Offset, req.Size, req.Append)
	if err != nil {
		sh.mu.Unlock()
		release()
		return nil, err
	}
	await, err := m.logEventBegin(walEvent{
		kind: walAssign, blob: req.Blob, version: plan.version,
		offset: plan.offset, size: plan.size, newSize: plan.newSize,
	})
	if err != nil {
		sh.mu.Unlock()
		release()
		return nil, err
	}
	resp := sh.state.applyAssign(plan, int64(m.sched.Now()))
	sh.mu.Unlock()
	release()
	// The shard is free from here: apply and read traffic on the same
	// blob overlaps this event's fsync.
	if err := await(); err != nil {
		return nil, err
	}
	return resp, nil
}

func (m *Manager) handleComplete(_ context.Context, msg wire.Msg) (wire.Msg, error) {
	req := msg.(*wire.CompleteReq)
	sh, err := m.shard(req.Blob)
	if err != nil {
		return nil, err
	}
	release := m.mutate()
	sh.mu.Lock()
	b := sh.state
	// Log only completions that will change state; error and idempotent
	// paths fall through to complete() unlogged.
	var await func() error
	if u, ok := b.inflight[req.Version]; ok && !u.aborted && !u.completed {
		var lerr error
		if await, lerr = m.logEventBegin(walEvent{kind: walComplete, blob: req.Blob, version: req.Version}); lerr != nil {
			sh.mu.Unlock()
			release()
			return nil, lerr
		}
	}
	readable, err := b.complete(req.Version)
	var wake func()
	if err == nil {
		wake = sh.fireWatchersLocked(readable)
	}
	sh.mu.Unlock()
	release()
	var werr error
	if await != nil {
		werr = await()
	}
	if err != nil {
		return nil, err
	}
	// The state changed (applied at enqueue), so watchers fire even if
	// durability failed — only the completer sees the log error.
	wake()
	if werr != nil {
		return nil, werr
	}
	return &wire.CompleteResp{}, nil
}

func (m *Manager) handleAbort(_ context.Context, msg wire.Msg) (wire.Msg, error) {
	req := msg.(*wire.AbortReq)
	sh, err := m.shard(req.Blob)
	if err != nil {
		return nil, err
	}
	release := m.mutate()
	sh.mu.Lock()
	b := sh.state
	// Log only aborts that will change state.
	var await func() error
	if u, ok := b.inflight[req.Version]; ok && !u.aborted {
		var lerr error
		if await, lerr = m.logEventBegin(walEvent{kind: walAbort, blob: req.Blob, version: req.Version}); lerr != nil {
			sh.mu.Unlock()
			release()
			return nil, lerr
		}
	}
	abortedVers, err := b.abort(req.Version)
	var wake func()
	if err == nil {
		// Aborting may also let queued completed versions publish (when
		// the aborted one was blocking the order) — advance() inside
		// abort already handled that; wake both kinds of waiters.
		wake = sh.abortWatchersLocked(abortedVers)
		more := sh.fireWatchersLocked(readableAfterAbort(b))
		prev := wake
		wake = func() { prev(); more() }
	}
	sh.mu.Unlock()
	release()
	var werr error
	if await != nil {
		werr = await()
	}
	if err != nil {
		return nil, err
	}
	wake()
	if werr != nil {
		return nil, werr
	}
	return &wire.AbortResp{}, nil
}

// readableAfterAbort returns versions that may have become readable when
// an abort unblocked the publication order.
func readableAfterAbort(b *blobState) []wire.Version {
	// advance() already ran inside abort; any version at or below
	// b.readable with a parked watcher is ready. The watcher maps are
	// per-version, so just report the current readable version — parked
	// watchers for lower versions were already fired when those published.
	if b.readable == 0 {
		return nil
	}
	return []wire.Version{b.readable}
}

func (m *Manager) handleRecent(_ context.Context, msg wire.Msg) (wire.Msg, error) {
	req := msg.(*wire.RecentReq)
	sh, err := m.shard(req.Blob)
	if err != nil {
		return nil, err
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	b := sh.state
	//blobseer:ignore lockorder nested shard lock is a strict lineage ancestor (smaller blob id, see sizeThroughLineage), never this shard
	sz, ok := m.sizeThroughLineage(sh, b.readable)
	if !ok {
		return nil, wire.NewError(wire.CodeUnknown,
			"blob %v: size of readable version %d unknown", b.id, b.readable)
	}
	return &wire.RecentResp{Version: b.readable, Size: sz}, nil
}

func (m *Manager) handleSize(_ context.Context, msg wire.Msg) (wire.Msg, error) {
	req := msg.(*wire.SizeReq)
	sh, err := m.shard(req.Blob)
	if err != nil {
		return nil, err
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	b := sh.state
	if req.Version > b.readable {
		return nil, wire.NewError(wire.CodeNotPublished,
			"version %d of blob %v is not published", req.Version, b.id)
	}
	//blobseer:ignore lockorder nested shard lock is a strict lineage ancestor (smaller blob id, see sizeThroughLineage), never this shard
	sz, ok := m.sizeThroughLineage(sh, req.Version)
	if !ok {
		return nil, wire.NewError(wire.CodeNotPublished,
			"version %d of blob %v is not readable", req.Version, b.id)
	}
	return &wire.SizeResp{Size: sz}, nil
}

func (m *Manager) handleSync(_ context.Context, msg wire.Msg) (wire.Msg, error) {
	req := msg.(*wire.SyncReq)
	sh, err := m.shard(req.Blob)
	if err != nil {
		return nil, err
	}
	sh.mu.Lock()
	b := sh.state
	if req.Version <= b.published || b.isAborted(req.Version) {
		aborted := b.isAborted(req.Version)
		sh.mu.Unlock()
		if aborted {
			return nil, wire.NewError(wire.CodeAborted, "version %d was aborted", req.Version)
		}
		return &wire.SyncResp{}, nil
	}
	if req.Version >= b.next {
		sh.mu.Unlock()
		return nil, wire.NewError(wire.CodeNotFound,
			"version %d of blob %v was never assigned", req.Version, b.id)
	}
	if m.closed.Load() {
		// Close drained the watchers (or is about to, after taking this
		// shard's lock); parking now would leak the waiter.
		sh.mu.Unlock()
		return nil, wire.NewError(wire.CodeUnavailable, "version manager shutting down")
	}
	ev := m.sched.NewEvent()
	sh.watchers[req.Version] = append(sh.watchers[req.Version], ev)
	sh.mu.Unlock()

	v, err := ev.Wait(nil)
	if err != nil {
		return nil, err
	}
	if e, ok := v.(error); ok {
		return nil, e
	}
	return &wire.SyncResp{}, nil
}

func (m *Manager) handleBranch(_ context.Context, msg wire.Msg) (wire.Msg, error) {
	req := msg.(*wire.BranchReq)
	sh, err := m.shard(req.Blob)
	if err != nil {
		return nil, err
	}
	release := m.mutate()
	sh.mu.Lock()
	// The branch point's size lives on its namespace owner, and the new
	// branch pins that owner's retention floor. Holding the owner's shard
	// mutex from the size check through pin registration closes the race
	// with a concurrent EXPIRE on the owner (lock nesting child-to-
	// ancestor is safe: ancestors have strictly smaller blob ids).
	// Everything up to and including the pin applies under the locks;
	// they unwind before the durability await.
	var osh *blobShard
	unwind := func() {
		if osh != nil {
			osh.mu.Unlock()
		}
		sh.mu.Unlock()
		release()
	}
	b := sh.state
	if req.Version > b.readable {
		unwind()
		return nil, wire.NewError(wire.CodeNotPublished,
			"cannot branch blob %v at unpublished version %d", b.id, req.Version)
	}
	ob := b
	if owner := b.lineage.Owner(req.Version); owner != b.id {
		o, err := m.shard(owner)
		if err != nil {
			unwind()
			return nil, err
		}
		osh = o
		//blobseer:ignore lockorder nested shard lock is a strict lineage ancestor (smaller blob id), never this shard
		osh.mu.Lock()
		ob = osh.state
	}
	sizeAt, ok := ob.sizeOf(req.Version)
	if !ok {
		unwind()
		return nil, wire.NewError(wire.CodeNotPublished,
			"cannot branch blob %v at version %d: aborted or expired", b.id, req.Version)
	}
	if m.closed.Load() {
		unwind()
		return nil, wire.NewError(wire.CodeUnavailable, "version manager shutting down")
	}
	id := wire.BlobID(m.nextBlob.Add(1))
	await, err := m.logEventBegin(walEvent{
		kind: walBranch, blob: id, parent: req.Blob,
		version: req.Version, newSize: sizeAt,
	})
	if err != nil {
		unwind()
		return nil, err
	}
	m.register(id, newShard(newBranchState(id, b, req.Version, sizeAt)))
	ob.registerPin(id, req.Version)
	// The pin mutates the lineage owner's state, which logEventBegin's
	// mark (the new blob id) does not cover.
	m.ckptDirty(ob.id)
	unwind()
	if err := await(); err != nil {
		return nil, err
	}
	return &wire.BranchResp{NewBlob: id}, nil
}

func (m *Manager) handleExpire(_ context.Context, msg wire.Msg) (wire.Msg, error) {
	req := msg.(*wire.ExpireReq)
	sh, err := m.shard(req.Blob)
	if err != nil {
		return nil, err
	}
	release := m.mutate()
	sh.mu.Lock()
	b := sh.state
	floor, expired, err := b.planExpire(req.UpTo, m.cfg.RetainVersions)
	if err != nil {
		sh.mu.Unlock()
		release()
		return nil, err
	}
	if floor <= b.expireFloor {
		// Idempotent repeat or fully clamped request: nothing to log.
		resp := &wire.ExpireResp{Floor: b.expireFloor}
		sh.mu.Unlock()
		release()
		return resp, nil
	}
	await, err := m.logEventBegin(walEvent{kind: walExpire, blob: req.Blob, version: floor})
	if err != nil {
		sh.mu.Unlock()
		release()
		return nil, err
	}
	b.applyExpire(floor)
	sh.mu.Unlock()
	release()
	if err := await(); err != nil {
		return nil, err
	}
	return &wire.ExpireResp{Floor: floor, Expired: expired}, nil
}

func (m *Manager) handleGCInfo(_ context.Context, msg wire.Msg) (wire.Msg, error) {
	req := msg.(*wire.GCInfoReq)
	sh, err := m.shard(req.Blob)
	if err != nil {
		return nil, err
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ownMin, retained, expired := sh.state.gcPlan()
	return &wire.GCInfoResp{
		OwnMin:   ownMin,
		Floor:    sh.state.expireFloor,
		Retained: retained,
		Expired:  expired,
	}, nil
}
