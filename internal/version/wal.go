package version

import (
	"fmt"

	"blobseer/internal/seglog"
	"blobseer/internal/wire"
)

// The write-ahead log makes the version manager's state durable across
// restarts — an extension: the paper's prototype kept version state in
// memory. Every state-changing event is enqueued to the log and applied
// under the handler's locks, and the client is acknowledged only once
// the event is durable. The log is fail-stop, so a manager restarted on
// it continues where the last one stopped, at worst without a suffix of
// unacknowledged events; in-flight updates stay in flight, and are swept
// by DeadWriterTimeout if their writer died with the crash.
//
// How the log lives on disk — segments, framing, torn tails, group
// commit, checkpoints — is seglog.Log's business, behind its file seam.
// This file holds what only the version manager knows: the record (a
// wire-encoded event), walMachine, which folds records and snapshots
// (snapshot.go) through the one transition function (blob.go), and the
// names of the checkpoint's fault points.

const walMagic = 0x5EE5B10C

// walMachine is the version WAL as seglog.Log folds it.
var walMachine = &seglog.Machine[*state]{
	Format: seglog.Format{Name: "version", RecMagic: walMagic, SnapMagic: snapMagic},
	Empty:  func() *state { return &state{nextSeg: 1} },
	Decode: func(payload []byte) (*state, uint64, error) {
		st, err := decodeSnapshot(payload)
		if err != nil {
			return nil, 0, err
		}
		return st, st.nextSeg, nil
	},
	Encode: func(st *state, next uint64) []byte {
		st.nextSeg = next
		return encodeSnapshot(st)
	},
	Apply: func(st *state, payload []byte) error {
		e, err := decodeWALEvent(payload)
		if err == nil {
			_, err = transition(st, e, 0)
		}
		return err
	},
	Len: func(st *state) int { return len(st.blobs) },
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

// Checkpoint fault points, by the stage seglog.Log reaches them in:
// the names ManagerConfig.Fault is called with.
const (
	crashBegin          = "begin"           // before anything happened
	crashCaptured       = "captured"        // snapshot payload built, nothing on disk yet
	crashTmpWritten     = "tmp-written"     // tmp snapshot fully written+synced
	crashRenamed        = "renamed"         // snapshot live, segments not yet deleted
	crashSegmentDeleted = "segment-deleted" // after each covered-segment delete
)

// crashPoints lists every fault point in stage order.
var crashPoints = []string{crashBegin, crashCaptured, crashTmpWritten, crashRenamed, crashSegmentDeleted}

// crash fires the test seam ManagerConfig.Fault at a checkpoint stage of
// the log: an error aborts the checkpoint there, as a crash would.
func (m *Manager) crash(stage int) error {
	if m.cfg.Fault == nil {
		return nil
	}
	return m.cfg.Fault(crashPoints[stage])
}

// Checkpoint folds every event logged before this call into a snapshot
// and deletes the write-ahead-log segments it covers (seglog.Log), so a
// restart folds only events logged after; a no-op without a WAL. It is
// what the background checkpointer runs every CheckpointEvery events.
func (m *Manager) Checkpoint() error {
	if m.log == nil {
		return nil
	}
	if m.closed.Load() {
		return wire.NewError(wire.CodeUnavailable, "version manager shutting down")
	}
	return m.log.Checkpoint()
}
