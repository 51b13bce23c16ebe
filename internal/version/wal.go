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
// wire-encoded event) and walMachine, which folds records and snapshots
// (snapshot.go) through the one transition function (blob.go).

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
	c := wire.EncodeTo(make([]byte, 0, 64))
	e.code(&c)
	if err := c.Err(); err != nil {
		panic("version: encoding wal event: " + err.Error())
	}
	return c.Encoded()
}

func decodeWALEvent(data []byte) (walEvent, error) {
	var e walEvent
	c := wire.DecodeFrom(data)
	e.code(&c)
	if err := c.Finish(); err != nil {
		return walEvent{}, fmt.Errorf("version: decoding wal event: %w", err)
	}
	return e, nil
}

// code is the record's layout: the kind, then the fields it uses.
func (e *walEvent) code(c *wire.Codec) {
	c.Uint8(&e.kind)
	switch e.kind {
	case walCreate:
		c.Uint64((*uint64)(&e.blob))
		c.Uint32(&e.pageSize)
	case walBranch:
		c.Uint64((*uint64)(&e.blob))
		c.Uint64((*uint64)(&e.parent))
		c.Uint64(&e.version)
		c.Uint64(&e.newSize)
	case walAssign:
		c.Uint64((*uint64)(&e.blob))
		c.Uint64(&e.version)
		c.Uint64(&e.offset)
		c.Uint64(&e.size)
		c.Uint64(&e.newSize)
	case walComplete, walAbort, walExpire:
		c.Uint64((*uint64)(&e.blob))
		c.Uint64(&e.version)
	default:
		c.Fail(fmt.Errorf("unknown wal event kind %d", e.kind))
	}
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
