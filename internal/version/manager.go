package version

import (
	"context"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"blobseer/internal/obs"
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
	// failure handling to future work; this is an extension). The
	// sweeper runs every quarter of the window.
	DeadWriterTimeout time.Duration
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
	// that many logged events: the sealed segments are folded into an
	// atomically renamed snapshot file and deleted, bounding both the
	// log's disk footprint and the restart's fold by the interval. Zero
	// disables automatic checkpoints; Checkpoint() remains available on
	// demand either way.
	CheckpointEvery int
	// RetainVersions is the keep-last-N retention policy: EXPIRE requests
	// are clamped so at least this many of a blob's newest own published
	// versions stay readable (default 1 — the newest readable snapshot
	// can never expire regardless).
	RetainVersions int
	// Fault, when set, is called at every checkpoint fault point (as
	// seglog.LogOptions.Fault names them); an error aborts the checkpoint
	// there exactly as a process death at that point would. A test seam:
	// no deployment sets it.
	Fault func(point string) error
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
//
// Every state change is an event (wal.go) run through the one
// transition function (blob.go): a mutating handler validates its
// request read-only under the shard lock, builds the event, and hands it
// to step, which enqueues it to the log and applies it; the handler then
// unlocks, awaits durability and wakes whom the event resolved. Recovery
// and the checkpointer fold the logged events through the same function,
// so they never look at — or wait for — the live state.
//
// The lock order, in the form the lockorder analyzer (cmd/blobseer-vet)
// enforces:
//
//blobseer:lockorder blobShard.mu < registryStripe.mu
type Manager struct {
	cfg   ManagerConfig
	sched vclock.Scheduler
	srv   *rpc.Server
	mux   *rpc.Mux
	log   *seglog.Log // nil when not durable
	// started is the scheduler time this incarnation began: the sweeper
	// counts an update it inherited from the log as assigned then.
	started int64

	stripes  [registryStripes]registryStripe
	nextBlob atomic.Uint64 // last allocated blob id

	// deadWriterAborts counts the updates the sweeper aborted.
	deadWriterAborts atomic.Uint64

	sweep *vclock.Sleeper   // the sweeper's sleep; Close stops it
	wg    *vclock.WaitGroup // joins the sweeper on Close

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

// ServeManagerDurable starts the version manager on ln, reporting the
// write-ahead log's open or fold error when cfg asks for one.
func ServeManagerDurable(ln transport.Listener, cfg ManagerConfig) (*Manager, error) {
	if cfg.Sched == nil {
		cfg.Sched = vclock.NewReal()
	}
	m := &Manager{cfg: cfg, sched: cfg.Sched, started: int64(cfg.Sched.Now())}
	for i := range m.stripes {
		m.stripes[i].blobs = make(map[wire.BlobID]*blobShard)
	}
	if cfg.WALPath != "" {
		log, st, err := seglog.OpenLog(cfg.Sched, cfg.WALPath, walMachine, seglog.LogOptions{
			Sync:            cfg.WALSync,
			SegmentBytes:    cfg.WALSegmentBytes,
			CheckpointEvery: cfg.CheckpointEvery,
			Fault:           cfg.Fault,
		})
		if err != nil {
			return nil, err
		}
		m.log = log
		m.nextBlob.Store(uint64(st.nextBlob))
		// Pre-serve: no handler can race these inserts.
		for _, b := range st.blobs {
			m.insert(b)
		}
	}
	m.mux = m.newMux()
	m.srv = rpc.Serve(ln, cfg.Sched, m.mux)
	m.sweep = vclock.NewSleeper(cfg.Sched)
	m.wg = vclock.NewWaitGroup(cfg.Sched)
	if cfg.DeadWriterTimeout > 0 {
		m.wg.Go(m.sweepLoop)
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

// Metrics writes the manager's series: its rpc server's, its in-flight
// updates, the writers its sweeper declared dead, and — when durable —
// its write-ahead log's and checkpoints'.
func (m *Manager) Metrics(s *obs.Sink) {
	m.srv.Metrics(s)
	inflight := 0
	for _, sh := range m.allShards() {
		sh.mu.Lock()
		inflight += len(sh.state.inflight)
		sh.mu.Unlock()
	}
	s.Gauge("version_updates_in_flight", "updates assigned a version and not yet published", float64(inflight))
	s.Counter("version_dead_writer_aborts_total", "updates aborted because their writer went silent", float64(m.deadWriterAborts.Load()))
	if m.log != nil {
		r, loaded := m.log.Stats(), 0.0
		if r.SnapshotLoaded {
			loaded = 1
		}
		s.Counter("version_wal_appends_total", "events appended to the write-ahead log since start", float64(r.Appends))
		s.Counter("version_wal_syncs_total", "write-ahead log fsyncs since start (fewer than appends: group commit)", float64(r.Syncs))
		s.Gauge("version_wal_uncheckpointed_events", "events logged past the published checkpoint: what a restart replays", float64(r.Uncovered))
		s.Counter("version_checkpoints_total", "checkpoints published since start", float64(r.Checkpoints))
		s.Counter("version_checkpoint_failures_total", "background checkpoint passes that failed", float64(r.CheckpointFailures))
		s.Gauge("version_recovery_snapshot_loaded", "1 if a checkpoint seeded this start", loaded)
		s.Gauge("version_recovery_snapshot_blobs", "blobs this start restored from the checkpoint", float64(r.SnapshotEntries))
		s.Gauge("version_recovery_segments", "write-ahead log segments this start found or created", float64(r.Segments))
		s.Gauge("version_recovery_stale_removed", "segments a checkpoint covered that this start deleted", float64(r.StaleRemoved))
		s.Gauge("version_recovery_events_replayed", "events this start folded in from the log's tail", float64(r.Replayed))
	}
}

// Deprecated: read version_wal_appends_total and version_wal_syncs_total
// (Metrics); kept only until internal/blast stops naming it.
func (m *Manager) WALStats() (appends, syncs uint64) {
	return uint64(obs.Value(m, "version_wal_appends_total")), uint64(obs.Value(m, "version_wal_syncs_total"))
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
		fire(evs, wire.NewError(wire.CodeUnavailable, "version manager shutting down"))
		m.srv.Close()
		m.sweep.Stop()
		_ = m.wg.Wait() // ErrStopped means the scheduler already unwound it
		m.log.Close()   // after an in-flight checkpoint, whose snapshot is worth keeping
	})
}

func (m *Manager) stripe(id wire.BlobID) *registryStripe {
	return &m.stripes[uint64(id)%registryStripes]
}

// find looks the blob up in the registry, nil if it does not exist. The
// stripe lock is released before returning: shards are never deleted,
// so the pointer stays valid.
func (m *Manager) find(id wire.BlobID) *blobShard {
	s := m.stripe(id)
	s.mu.RLock()
	sh := s.blobs[id]
	s.mu.RUnlock()
	return sh
}

// shard is find for a request: a missing blob is the client's error.
func (m *Manager) shard(id wire.BlobID) (*blobShard, error) {
	sh := m.find(id)
	if sh == nil {
		return nil, wire.NewError(wire.CodeNotFound, "blob %v does not exist", id)
	}
	return sh, nil
}

// lookup and insert make the live registry the blobTable transition runs
// over. lookup hands out a blob's state, not its lock: the handler
// holds the shard mutex of every existing blob its event touches.
func (m *Manager) lookup(id wire.BlobID) *blobState {
	if sh := m.find(id); sh != nil {
		return sh.state
	}
	return nil
}

func (m *Manager) insert(b *blobState) {
	s := m.stripe(b.id)
	s.mu.Lock()
	s.blobs[b.id] = newShard(b)
	s.mu.Unlock()
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

// step logs e and applies it — the state-changing middle of every
// mutating handler and of the sweeper. The event is enqueued to the
// write-ahead log (when durable) and run through transition while the
// caller holds the shard lock of every existing blob it touches (none
// exists yet for a create), so each blob's log order matches its apply
// order even though batches interleave events of different blobs. The
// caller then releases its locks and only then awaits a — the shard is
// free while the leader sits in the fsync, and the client is
// acknowledged only once the event is durable. Every step that succeeds
// MUST be awaited (an unawaited designated leader stalls the queue); a
// refused enqueue (closed or wedged log) changes nothing.
func (m *Manager) step(e walEvent) (w woken, a *seglog.Pending, err error) {
	if m.log != nil {
		if a, err = m.log.Enqueue(e.encode()); err != nil {
			return w, nil, wire.NewError(wire.CodeUnavailable, "version log: %v", err)
		}
	}
	if w, err = transition(m, e, int64(m.sched.Now())); err != nil {
		// The handler validated e against this very state under the same
		// locks. Carrying on would leave a log no restart can fold.
		panic(err)
	}
	return w, a, nil
}

// await parks until the event step enqueued as a is durable (at once
// when the manager is not). Callers hold no manager locks.
func (m *Manager) await(a *seglog.Pending) error {
	if a == nil {
		return nil
	}
	if err := m.log.Await(a); err != nil {
		return wire.NewError(wire.CodeUnavailable, "version log: %v", err)
	}
	return nil
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

// popWatchersLocked removes and returns the SYNC waiters parked on the
// given versions, for the caller to fire once it has released sh.mu.
func (sh *blobShard) popWatchersLocked(versions []wire.Version) []vclock.Event {
	var evs []vclock.Event
	for _, v := range versions {
		evs = append(evs, sh.watchers[v]...)
		delete(sh.watchers, v)
	}
	return evs
}

// fire resolves parked SYNC waiters: with nil once their version is
// readable, with the error that says why it never will be otherwise.
func fire(evs []vclock.Event, outcome error) {
	for _, ev := range evs {
		ev.Fire(outcome)
	}
}

// errVersionAborted is what a SYNC parked on a withdrawn version gets.
var errVersionAborted = wire.NewError(wire.CodeAborted, "version aborted")

// sweepLoop aborts updates from writers that went silent.
func (m *Manager) sweepLoop() {
	for {
		if err := m.sweep.Sleep(m.cfg.DeadWriterTimeout / 4); err != nil || m.closed.Load() {
			return
		}
		cutoff := int64(m.sched.Now()) - int64(m.cfg.DeadWriterTimeout)
		var evs []vclock.Event
		var appends []*seglog.Pending
		for _, sh := range m.allShards() {
			sh.mu.Lock()
			b := sh.state
			var stale []wire.Version
			for _, u := range b.inflight {
				// An update folded in from the log has been silent for as
				// long as this incarnation can tell: since it started.
				if !u.completed && !u.aborted && max(u.assignedAt, m.started) < cutoff {
					stale = append(stale, u.version)
				}
			}
			// Lowest first: its cascade usually covers the rest.
			sort.Slice(stale, func(i, j int) bool { return stale[i] < stale[j] })
			for _, v := range stale {
				e, _ := b.planAbort(v)
				if e.kind == 0 {
					continue // a lower stale version's cascade got it
				}
				// Sweeper aborts are durable too; if the log refuses the
				// event (closed or wedged) leave the update for the next
				// sweep rather than diverge from the log.
				w, a, err := m.step(e)
				if err != nil {
					break
				}
				m.deadWriterAborts.Add(1)
				appends = append(appends, a)
				evs = append(evs, sh.popWatchersLocked(w.aborted)...)
			}
			sh.mu.Unlock()
		}
		for _, a := range appends {
			// A durability failure wedges the log fail-stop; the aborts
			// stay applied in memory and the next mutation reports it.
			_ = m.await(a)
		}
		fire(evs, errVersionAborted)
	}
}

func (m *Manager) newMux() *rpc.Mux {
	mux := rpc.NewMux()
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
	// The id is reserved before logging; if the log refuses the event the
	// id is simply burned (ids are unique, not dense). No other event for
	// this blob can enter the log first, because the id is unknown to
	// clients until the create is durable and acknowledged — so no lock is
	// held here. If durability then fails, the log is wedged (fail-stop)
	// and the unacknowledged in-memory blob is inert.
	id := wire.BlobID(m.nextBlob.Add(1))
	_, a, err := m.step(walEvent{kind: walCreate, blob: id, pageSize: ps})
	if err != nil {
		return nil, err
	}
	if err := m.await(a); err != nil {
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

// update runs one request that changes a single existing blob — the
// shape every such handler shares. plan, called under the blob's shard
// lock, validates the request read-only and returns the event that
// carries it out (kind 0: a repeat, nothing to log); update logs and
// applies the event, releases the shard — apply and read traffic on the
// same blob overlaps the event's fsync — awaits durability and wakes
// whoever the event resolved. The state changed at enqueue, so they
// wake even if durability failed: only the requester sees the log error.
func (m *Manager) update(id wire.BlobID, plan func(b *blobState) (walEvent, error)) error {
	sh, err := m.shard(id)
	if err != nil {
		return err
	}
	sh.mu.Lock()
	e, err := plan(sh.state)
	if err != nil || e.kind == 0 {
		sh.mu.Unlock()
		return err
	}
	w, a, err := m.step(e)
	readable, aborted := sh.popWatchersLocked(w.readable), sh.popWatchersLocked(w.aborted)
	sh.mu.Unlock()
	if err != nil {
		return err
	}
	err = m.await(a)
	fire(readable, nil)
	fire(aborted, errVersionAborted)
	return err
}

func (m *Manager) handleAssign(_ context.Context, msg wire.Msg) (wire.Msg, error) {
	req := msg.(*wire.AssignReq)
	var resp *wire.AssignResp
	err := m.update(req.Blob, func(b *blobState) (walEvent, error) {
		// Plan once, log the plan, apply the same plan: the WAL record
		// and the in-memory state cannot diverge.
		e, err := b.planAssign(req.Offset, req.Size, req.Append)
		if err == nil {
			// What the writer weaves against is the state just before
			// its update.
			resp = &wire.AssignResp{
				Version:       e.version,
				Offset:        e.offset,
				NewSize:       e.newSize,
				PrevSize:      b.pendingSize,
				Published:     b.readable,
				PublishedSize: b.sizes[b.readable],
				InFlight:      b.inflightBelow(e.version),
			}
		}
		return e, err
	})
	if err != nil {
		return nil, err
	}
	return resp, nil
}

func (m *Manager) handleComplete(_ context.Context, msg wire.Msg) (wire.Msg, error) {
	req := msg.(*wire.CompleteReq)
	err := m.update(req.Blob, func(b *blobState) (walEvent, error) { return b.planComplete(req.Version) })
	if err != nil {
		return nil, err
	}
	return &wire.CompleteResp{}, nil
}

func (m *Manager) handleAbort(_ context.Context, msg wire.Msg) (wire.Msg, error) {
	req := msg.(*wire.AbortReq)
	err := m.update(req.Blob, func(b *blobState) (walEvent, error) { return b.planAbort(req.Version) })
	if err != nil {
		return nil, err
	}
	return &wire.AbortResp{}, nil
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

func (m *Manager) handleSync(ctx context.Context, msg wire.Msg) (wire.Msg, error) {
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

	v, err := ev.Wait(ctx)
	if err != nil {
		// The client went away (or the scheduler stopped): withdraw, so
		// an abandoned SYNC strands neither this handler nor its entry —
		// a dead writer's version may never resolve. Whoever already
		// popped the event fires into its buffer, harmlessly.
		sh.mu.Lock()
		if list := sh.watchers[req.Version]; len(list) > 1 {
			sh.watchers[req.Version] = slices.DeleteFunc(list, func(e vclock.Event) bool { return e == ev })
		} else if len(list) == 1 && list[0] == ev {
			delete(sh.watchers, req.Version)
		}
		sh.mu.Unlock()
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
	sh.mu.Lock()
	// The branch point's size lives on its namespace owner, and the new
	// branch pins that owner's retention floor. Holding the owner's shard
	// mutex from the size check through the transition, which
	// registers the pin, closes the race with a concurrent EXPIRE on the
	// owner (lock nesting child-to-ancestor is safe: ancestors have
	// strictly smaller blob ids). The locks unwind before the durability
	// await.
	var osh *blobShard
	unwind := func() {
		if osh != nil {
			osh.mu.Unlock()
		}
		sh.mu.Unlock()
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
	_, a, err := m.step(walEvent{
		kind: walBranch, blob: id, parent: req.Blob,
		version: req.Version, newSize: sizeAt,
	})
	unwind()
	if err != nil {
		return nil, err
	}
	if err := m.await(a); err != nil {
		return nil, err
	}
	return &wire.BranchResp{NewBlob: id}, nil
}

func (m *Manager) handleExpire(_ context.Context, msg wire.Msg) (wire.Msg, error) {
	req := msg.(*wire.ExpireReq)
	var resp *wire.ExpireResp
	err := m.update(req.Blob, func(b *blobState) (walEvent, error) {
		floor, expired, err := b.planExpire(req.UpTo, m.cfg.RetainVersions)
		if err != nil {
			return walEvent{}, err
		}
		resp = &wire.ExpireResp{Floor: floor, Expired: expired}
		if floor == b.expireFloor {
			// Idempotent repeat or fully clamped request: nothing to log.
			return walEvent{}, nil
		}
		return walEvent{kind: walExpire, blob: b.id, version: floor}, nil
	})
	if err != nil {
		return nil, err
	}
	return resp, nil
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
