package version

import (
	"testing"

	"blobseer/internal/obs"
	"blobseer/internal/seglog"
	"blobseer/internal/transport"
	"blobseer/internal/wire"
)

// Shapes the package's tests were written against before state-from-
// events became one fold, kept here as thin adapters over the production
// open and transition so no identifier only tests reach lives in
// non-test code.

// snapshotState is the one state type under its old name.
type snapshotState = state

// walHeaderSize is where a segment's first record's payload starts.
const walHeaderSize = seglog.FrameHeaderSize

// walTail is what openWAL hands a test beside the log: the events of the
// segments the snapshot does not cover, in log order.
type walTail struct{ events []walEvent }

// openWAL is openLog plus a second scan for the raw tail events.
func openWAL(path string, opts walOptions) (*wal, *walTail, error) {
	w, st, err := openLog(path, opts)
	if err != nil {
		return nil, nil, err
	}
	segs, err := walFmt.ListSegments(path)
	if err != nil {
		w.close()
		return nil, nil, err
	}
	rec := &walTail{}
	for _, s := range segs {
		if s < st.nextSeg {
			continue
		}
		if err := scanSegment(seglog.SegmentPath(path, s), false, func(e walEvent) error {
			rec.events = append(rec.events, e)
			return nil
		}); err != nil {
			w.close()
			return nil, nil, err
		}
	}
	return w, rec, nil
}

// replay folds events over blobs through the transition function.
func replay(events []walEvent, blobs map[wire.BlobID]*blobState, now int64) (wire.BlobID, error) {
	st := &state{byID: blobs} // blobs the events create land in the caller's map
	for _, b := range blobs {
		st.blobs = append(st.blobs, b)
	}
	for _, e := range events {
		if _, err := transition(st, e, now); err != nil {
			return 0, err
		}
	}
	return st.nextBlob, nil
}

// append writes one event durably before returning: enqueue and await
// in one step, for tests of the log's own mechanics.
func (w *wal) append(e walEvent) error {
	a, err := w.enqueue(e)
	if err != nil {
		return err
	}
	return w.await(a)
}

// ServeManager is ServeManagerDurable for configurations that cannot
// fail to open.
func ServeManager(ln transport.Listener, cfg ManagerConfig) *Manager {
	m, err := ServeManagerDurable(ln, cfg)
	if err != nil {
		panic("version: " + err.Error())
	}
	return m
}

// Checkpoints reports how many checkpoints completed since start.
func (m *Manager) Checkpoints() uint64 { return uint64(obs.Value(m, "version_checkpoints_total")) }

// clone deep-copies a blob's state, so a fingerprint can be encoded
// without holding (or racing) the shard it came from.
func (b *blobState) clone() *blobState {
	c := *b
	c.lineage = append(wire.Lineage(nil), b.lineage...)
	c.pins = nil // derived, never encoded
	c.sizes = make(map[wire.Version]uint64, len(b.sizes))
	for v, sz := range b.sizes {
		c.sizes[v] = sz
	}
	c.aborted = make(map[wire.Version]bool, len(b.aborted))
	for v := range b.aborted {
		c.aborted[v] = true
	}
	c.inflight = make(map[wire.Version]*update, len(b.inflight))
	for v, u := range b.inflight {
		uc := *u
		c.inflight[v] = &uc
	}
	return &c
}

// fingerprintDisk is fingerprint's counterpart for what the disk at
// cfg.WALPath folds to, read without opening the log for appending.
func fingerprintDisk(t *testing.T, cfg ManagerConfig) []byte {
	t.Helper()
	fl, err := foldLog(cfg.WALPath, 0)
	if err != nil {
		t.Fatalf("fold of %s: %v", cfg.WALPath, err)
	}
	fl.st.nextSeg = 0
	return encodeSnapshot(fl.st)
}
