// Package version implements the version manager, "the key actor of the
// system" (§3.1): it assigns snapshot versions to updates, guarantees
// their total ordering and atomic publication, answers version/size
// queries, parks SYNC waiters, and tracks blob lineages for cheap
// branching.
//
// The in-flight registry is what enables lock-free metadata writes: a
// newly assigned writer receives the ranges of every assigned-but-
// unpublished lower version (the paper's partial border set, §4.2), so it
// can weave its tree without waiting for those writers to finish.
package version

import (
	"fmt"
	"sort"

	"blobseer/internal/wire"
)

// update is one assigned, not-yet-published update of a blob.
type update struct {
	version wire.Version
	offset  uint64 // byte offset of the rewritten range
	size    uint64 // byte length of the rewritten range
	newSize uint64 // blob size after this update
	// basePublished is the readable version at assign time: the snapshot
	// whose tree the writer weaves its untouched ranges against. Expiry
	// must not pass it while this update is in flight (see planExpire).
	basePublished wire.Version
	completed     bool // writer reported success; awaiting ordered publication
	aborted       bool
	assignedAt    int64 // scheduler time in nanoseconds, for dead-writer sweeps
}

// blobState is the version manager's bookkeeping for one blob. It is a
// pure state machine: the RPC service wraps it with locking and events.
type blobState struct {
	id       wire.BlobID
	pageSize uint32
	lineage  wire.Lineage

	next        wire.Version // next version to assign
	published   wire.Version // dense publication pointer (may rest on an aborted version)
	readable    wire.Version // latest published non-aborted version
	pendingSize uint64       // size including all assigned updates

	// expireFloor is the retention watermark: every version below it that
	// this blob's namespace owns is expired — permanently unreadable, its
	// exclusively owned pages fair game for the garbage collector. It only
	// ever rises, and never past the oldest version a reader, branch or
	// in-flight update still needs (planExpire enforces that before the
	// event is logged).
	expireFloor wire.Version

	// pins maps each live child blob branched off this one to its branch
	// point. A branch's whole lineage rests on that snapshot, so EXPIRE
	// refuses to move the floor past any pin. Derived state: registered by
	// the branch event, re-derived from the lineages when a snapshot is
	// decoded, not persisted separately.
	pins map[wire.BlobID]wire.Version

	sizes    map[wire.Version]uint64 // sizes of published versions owned by this blob
	aborted  map[wire.Version]bool   // aborted version numbers (never readable)
	inflight map[wire.Version]*update
}

// newBlobState creates the state for a freshly created blob: the empty
// snapshot 0 is born published.
func newBlobState(id wire.BlobID, pageSize uint32) *blobState {
	return &blobState{
		id:       id,
		pageSize: pageSize,
		lineage:  wire.Lineage{{Blob: id, MinVersion: 0}},
		next:     1,
		sizes:    map[wire.Version]uint64{0: 0},
		aborted:  make(map[wire.Version]bool),
		inflight: make(map[wire.Version]*update),
	}
}

// newBranchState creates the state of a blob produced by BRANCH(parent,
// at); sizeAt is snapshot at's size, resolved by the manager through the
// parent's lineage.
func newBranchState(id wire.BlobID, parent *blobState, at wire.Version, sizeAt uint64) *blobState {
	lineage := wire.Lineage{{Blob: id, MinVersion: at + 1}}
	for _, e := range parent.lineage {
		if e.MinVersion <= at {
			lineage = append(lineage, e)
		}
	}
	return &blobState{
		id:          id,
		pageSize:    parent.pageSize,
		lineage:     lineage,
		next:        at + 1,
		published:   at,
		readable:    at,
		pendingSize: sizeAt,
		// Seed the branch point's size so assign() can report the
		// published size without a lineage walk.
		sizes:    map[wire.Version]uint64{at: sizeAt},
		aborted:  make(map[wire.Version]bool),
		inflight: make(map[wire.Version]*update),
	}
}

// blobTable is where the transition function finds and files blob
// states: the live registry (*Manager, whose caller holds the shard lock
// of every existing blob the event touches) or a folded log (*state).
type blobTable interface {
	lookup(id wire.BlobID) *blobState // nil when the blob does not exist
	insert(b *blobState)
}

// woken lists the versions an applied event resolved on its blob, for
// whoever is parked in SYNC on them.
type woken struct {
	readable []wire.Version // became readable
	aborted  []wire.Version // were withdrawn
}

// transition is the version manager's one transition function: the only code
// that constructs or mutates a blobState or registers a pin. A handler
// (or the dead-writer sweeper) validates its request read-only, logs the
// event and runs it through here under its shard locks; recovery and
// the checkpointer fold the same events off the disk through here — so
// live state, recovered state and snapshotted state are equal by
// construction, and the next change to the serialisation point is one
// case in this switch.
//
// Events of different blobs may interleave in the log in any order
// (handlers append concurrently under per-blob locks), but each blob's
// events appear in its apply order, which is all a fold needs:
// create/branch records are keyed by the ids they introduce, and a
// blob's id is only revealed to clients after its create or branch
// record is durable. An error means the event does not follow from the
// state — a corrupt log for a fold, a validation bug for a handler.
// now stamps a new update for the dead-writer sweeper; folds pass 0
// ("assigned before this incarnation started").
func transition(t blobTable, e walEvent, now int64) (w woken, err error) {
	b := t.lookup(e.blob)
	// Create and branch introduce e.blob; every other kind needs it.
	if introduces := e.kind == walCreate || e.kind == walBranch; introduces != (b == nil) {
		if introduces {
			return w, fmt.Errorf("version: event recreates blob %v", e.blob)
		}
		return w, fmt.Errorf("version: event kind %d on unknown blob %v", e.kind, e.blob)
	}
	switch e.kind {
	case walCreate:
		t.insert(newBlobState(e.blob, e.pageSize))
	case walBranch:
		parent := t.lookup(e.parent)
		if parent == nil {
			return w, fmt.Errorf("version: event branches unknown blob %v", e.parent)
		}
		// The branch point's snapshot lives in its namespace owner, which
		// the new branch pins: EXPIRE keeps refusing to cut the ground
		// from under it, after a restart too (pins are not stored; a
		// decoded snapshot re-derives its own from the lineages).
		owner := parent
		if id := parent.lineage.Owner(e.version); id != parent.id {
			if owner = t.lookup(id); owner == nil {
				return w, fmt.Errorf("version: event branches blob %v at a version of unknown blob %v", e.parent, id)
			}
		}
		t.insert(newBranchState(e.blob, parent, e.version, e.newSize))
		owner.registerPin(e.blob, e.version)
	// An assign, complete or abort must be the very event its plan
	// yields on this state — which is how the handler made it. (EXPIRE's
	// plan leans on configuration and on pins a checkpoint fold does not
	// need; its floor applies verbatim, the refusal checks ran before it
	// was logged.)
	case walAssign:
		if p, _ := b.planAssign(e.offset, e.size, false); p != e {
			return w, errUnplanned(e)
		}
		b.assign(e, now)
	case walComplete:
		if p, _ := b.planComplete(e.version); p != e {
			return w, errUnplanned(e)
		}
		w.readable = b.complete(b.inflight[e.version])
	case walAbort:
		if p, _ := b.planAbort(e.version); p != e {
			return w, errUnplanned(e)
		}
		w.aborted = b.abort(e.version)
	case walExpire:
		b.applyExpire(e.version)
	}
	return w, nil
}

func errUnplanned(e walEvent) error {
	return fmt.Errorf("version: event %+v does not follow from the state of blob %v", e, e.blob)
}

// planAssign validates an update request against the current state and
// returns the event that would assign it, without mutating anything: the
// logged record and the applied state cannot disagree. For an append,
// offset is chosen by the manager: the size of snapshot next-1 (§3.3),
// i.e. the current pending size.
func (b *blobState) planAssign(offset, size uint64, isAppend bool) (walEvent, error) {
	if size == 0 {
		return walEvent{}, wire.NewError(wire.CodeBadRequest, "empty update")
	}
	if isAppend {
		offset = b.pendingSize
	} else if offset > b.pendingSize {
		return walEvent{}, wire.NewError(wire.CodeOutOfBounds,
			"write at %d beyond blob size %d", offset, b.pendingSize)
	}
	newSize := b.pendingSize
	if offset+size > newSize {
		newSize = offset + size
	}
	return walEvent{
		kind: walAssign, blob: b.id, version: b.next,
		offset: offset, size: size, newSize: newSize,
	}, nil
}

// assign registers the update a walAssign event describes.
func (b *blobState) assign(e walEvent, now int64) {
	b.next = e.version + 1
	b.pendingSize = e.newSize
	b.inflight[e.version] = &update{
		version: e.version, offset: e.offset, size: e.size,
		newSize: e.newSize, basePublished: b.readable, assignedAt: now,
	}
}

// inflightBelow lists non-aborted assigned-but-unpublished updates with a
// version below v, in version order: the list goes onto the wire, and map
// iteration order must not leak into the encoding.
func (b *blobState) inflightBelow(v wire.Version) []wire.UpdateDesc {
	var out []wire.UpdateDesc
	for _, u := range b.inflight {
		if u.version < v && !u.aborted {
			out = append(out, wire.UpdateDesc{Version: u.version, Offset: u.offset, Size: u.size})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Version < out[j].Version })
	return out
}

// isAborted reports whether v was withdrawn, whether already past the
// publication pointer or still in the in-flight registry.
func (b *blobState) isAborted(v wire.Version) bool {
	if b.aborted[v] {
		return true
	}
	if u, ok := b.inflight[v]; ok {
		return u.aborted
	}
	return false
}

// planComplete validates a COMPLETE of version v without mutating
// anything and returns the event that carries it out — the zero event
// when nothing changes: a duplicate (the update already completed, or
// already published) is an unlogged success.
func (b *blobState) planComplete(v wire.Version) (walEvent, error) {
	u, ok := b.inflight[v]
	if !ok {
		if b.aborted[v] {
			return walEvent{}, wire.NewError(wire.CodeAborted, "version %d was aborted", v)
		}
		// Only versions this namespace actually published count as
		// idempotent duplicates. v <= b.published alone is not enough: on
		// a branch it also covers pre-branch versions owned by the parent
		// lineage and versions never assigned on this blob at all, and
		// answering success for those would tell a confused writer its
		// update published when no such update exists here. The ownMin
		// guard matters because a branch seeds sizes with its (parent-
		// owned) branch point.
		if _, published := b.sizes[v]; published && v >= b.ownMin() {
			return walEvent{}, nil
		}
		return walEvent{}, wire.NewError(wire.CodeNotFound,
			"version %d was never assigned on blob %v", v, b.id)
	}
	if u.aborted {
		return walEvent{}, wire.NewError(wire.CodeAborted, "version %d was aborted", v)
	}
	if u.completed {
		return walEvent{}, nil
	}
	return walEvent{kind: walComplete, blob: b.id, version: v}, nil
}

// complete marks in-flight update u's writer as done, advances
// publication and returns the versions that became readable.
func (b *blobState) complete(u *update) []wire.Version {
	u.completed = true
	return b.advance()
}

// advance publishes completed updates in version order, skipping aborted
// ones, and returns the versions that became readable.
func (b *blobState) advance() []wire.Version {
	var readable []wire.Version
	for {
		u, ok := b.inflight[b.published+1]
		if !ok || (!u.completed && !u.aborted) {
			return readable
		}
		b.published++
		delete(b.inflight, b.published)
		if u.aborted {
			b.aborted[b.published] = true
			continue
		}
		b.sizes[b.published] = u.newSize
		b.readable = b.published
		readable = append(readable, b.published)
	}
}

// planAbort validates an ABORT of version v without mutating anything
// and returns the event that carries it out — the zero event when
// nothing changes: repeating an abort is an unlogged success.
func (b *blobState) planAbort(v wire.Version) (walEvent, error) {
	u, ok := b.inflight[v]
	switch {
	case ok && !u.aborted:
		return walEvent{kind: walAbort, blob: b.id, version: v}, nil
	case ok || b.aborted[v]:
		return walEvent{}, nil
	case v <= b.published:
		return walEvent{}, wire.NewError(wire.CodeBadRequest,
			"version %d is already published and cannot be aborted", v)
	}
	return walEvent{}, wire.NewError(wire.CodeNotFound, "version %d was never assigned", v)
}

// abort withdraws in-flight version v and — because later in-flight
// updates may hold border references to v, and later appends may sit
// above a hole v would have filled — cascades to every in-flight version
// above v. It returns all versions aborted by the call. Nothing becomes
// readable: whatever sits above v is withdrawn with it, and whatever
// sits below still waits for what it waited for.
func (b *blobState) abort(v wire.Version) (abortedVersions []wire.Version) {
	// The no-survivor fallback must be the readable version, not the
	// publication pointer: published may rest on an aborted version (one a
	// previous cascade let advance() skip over), and aborted versions have
	// no size entry — falling back there would zero the pending size and
	// hand the next append offset 0 over live data.
	maxKept := b.readable
	for w, iu := range b.inflight {
		if w >= v {
			if !iu.aborted {
				iu.aborted = true
				abortedVersions = append(abortedVersions, w)
			}
			continue
		}
		if !iu.aborted && w > maxKept {
			maxKept = w
		}
	}
	// Roll the pending size back to the largest surviving update (or the
	// readable size if none survives above the publication point).
	b.pendingSize = b.sizeAfter(maxKept)
	b.advance() // aborted versions at the front can be skipped over now
	return abortedVersions
}

// sizeAfter returns the blob size as of version v, whether published or
// still in flight. v must not be aborted.
func (b *blobState) sizeAfter(v wire.Version) uint64 {
	if u, ok := b.inflight[v]; ok {
		return u.newSize
	}
	return b.sizes[v]
}

// sizeOf looks up the size of published version v, following nothing:
// the manager resolves lineage before calling. ok is false if v is not
// readable on this state — never published here, aborted, or expired.
func (b *blobState) sizeOf(v wire.Version) (uint64, bool) {
	if v < b.expireFloor {
		return 0, false // expired: permanently unreadable
	}
	sz, ok := b.sizes[v]
	return sz, ok
}

// ownMin is the namespace floor from the lineage: versions below it were
// written under an ancestor blob's namespace.
func (b *blobState) ownMin() wire.Version {
	if len(b.lineage) == 0 {
		return 0
	}
	return b.lineage[0].MinVersion
}

// registerPin records that child was branched off at version at of this
// namespace, so EXPIRE never moves the floor past at.
func (b *blobState) registerPin(child wire.BlobID, at wire.Version) {
	if b.pins == nil {
		b.pins = make(map[wire.BlobID]wire.Version)
	}
	b.pins[child] = at
}

// planExpire validates an EXPIRE request against the current state and
// returns the floor it would set plus the published versions it would
// newly expire, without mutating anything. Safety refusals are errors:
// the newest readable version, any child branch's pin, and the published
// base any in-flight update is still weaving against must all stay below
// the floor. The keep-last-N retention policy (retain) is a clamp, not a
// refusal: the request simply expires less. A fully clamped or repeated
// request returns the current floor with no newly expired versions.
func (b *blobState) planExpire(upTo wire.Version, retain int) (wire.Version, []wire.Version, error) {
	if upTo >= b.readable {
		return 0, nil, wire.NewError(wire.CodeBadRequest,
			"cannot expire blob %v up to %d: version %d is the newest readable snapshot",
			b.id, upTo, b.readable)
	}
	for child, at := range b.pins {
		if upTo >= at {
			return 0, nil, wire.NewError(wire.CodeBadRequest,
				"cannot expire blob %v up to %d: version %d is pinned as the branch point of blob %v",
				b.id, upTo, at, child)
		}
	}
	for _, u := range b.inflight {
		if !u.aborted && u.basePublished <= upTo {
			return 0, nil, wire.NewError(wire.CodeBadRequest,
				"cannot expire blob %v up to %d: in-flight version %d still weaves against snapshot %d",
				b.id, upTo, u.version, u.basePublished)
		}
	}
	if retain < 1 {
		retain = 1
	}
	own := b.ownPublished()
	if len(own) == 0 {
		return b.expireFloor, nil, nil // nothing owned to expire
	}
	floor := upTo + 1
	keepFrom := own[0]
	if len(own) > retain {
		keepFrom = own[len(own)-retain]
	}
	if floor > keepFrom {
		floor = keepFrom // keep-last-N: the N newest own versions survive
	}
	if floor <= b.expireFloor {
		return b.expireFloor, nil, nil // idempotent repeat or fully clamped
	}
	var expired []wire.Version
	for _, v := range own {
		if v >= b.expireFloor && v < floor {
			expired = append(expired, v)
		}
	}
	return floor, expired, nil
}

// applyExpire raises the retention floor.
func (b *blobState) applyExpire(floor wire.Version) {
	if floor > b.expireFloor {
		b.expireFloor = floor
	}
}

// ownPublished lists this namespace's published non-aborted versions,
// ascending (expired ones included: their metadata is retained for GC).
func (b *blobState) ownPublished() []wire.Version {
	min := b.ownMin()
	out := make([]wire.Version, 0, len(b.sizes))
	for v := range b.sizes {
		if v >= min {
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// gcPlan describes what a garbage collection of this namespace walks:
// every expired published version (deletion candidates come from their
// trees) and the oldest retained one (the diff base — any page a
// retained snapshot still reaches is reachable from the oldest, because
// segment trees share monotonically).
func (b *blobState) gcPlan() (ownMin wire.Version, retained wire.VersionInfo, expired []wire.VersionInfo) {
	ownMin = b.ownMin()
	retained = wire.VersionInfo{Version: b.readable, Size: b.sizes[b.readable]}
	for _, v := range b.ownPublished() {
		if v < b.expireFloor {
			expired = append(expired, wire.VersionInfo{Version: v, Size: b.sizes[v]})
		} else if v < retained.Version {
			retained = wire.VersionInfo{Version: v, Size: b.sizes[v]}
		}
	}
	return ownMin, retained, expired
}
