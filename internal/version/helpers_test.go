package version

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
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

// walLog is the version WAL as the manager opens it.
type walLog = seglog.Log

// walOptions configures openWAL.
type walOptions struct{ fsync bool }

// walTail is what openWAL hands a test beside the log: the events of the
// segments the snapshot does not cover, in log order.
type walTail struct{ events []walEvent }

// openWAL opens the log at path with the manager's machine, recording
// each event the open folds from the tail segments.
func openWAL(path string, opts walOptions) (*walLog, *walTail, error) {
	rec := &walTail{}
	m := *walMachine
	m.Apply = func(st *state, payload []byte) error {
		if e, err := decodeWALEvent(payload); err == nil {
			rec.events = append(rec.events, e)
		}
		return walMachine.Apply(st, payload)
	}
	w, _, err := seglog.OpenLog(nil, path, &m, seglog.LogOptions{Sync: opts.fsync})
	return w, rec, err
}

// armFault gives cfg a Fault that calls whatever *hook holds when a
// checkpoint reaches a fault point, and nothing while it is nil: the
// manager hands cfg.Fault to its log at open, so a test arms and
// disarms the hook through the pointer while the manager runs.
func armFault(cfg *ManagerConfig) (hook *func(point string) error) {
	hook = new(func(string) error)
	cfg.Fault = func(point string) error {
		if *hook == nil {
			return nil
		}
		return (*hook)(point)
	}
	return hook
}

// appendEvent writes one event durably before returning: enqueue and
// await in one step, for tests of the log's own mechanics.
func appendEvent(w *walLog, e walEvent) error {
	p, err := w.Enqueue(e.encode())
	if err != nil {
		return err
	}
	return w.Await(p)
}

// listSegments returns the indices of the segment files of the log at
// base, ascending.
func listSegments(base string) ([]uint64, error) {
	names, err := os.ReadDir(filepath.Dir(base))
	if err != nil {
		return nil, err
	}
	var segs []uint64
	for _, n := range names {
		rest, ok := strings.CutPrefix(n.Name(), filepath.Base(base)+".")
		if idx, err := strconv.ParseUint(rest, 10, 64); ok && err == nil && idx > 0 {
			segs = append(segs, idx)
		}
	}
	return segs, nil // ReadDir sorts by name, and indices are fixed-width
}

// snapshotFile is a snapshot file's bytes: the payload framed with the
// snapshot magic.
func snapshotFile(payload []byte) []byte {
	return (&seglog.Format{RecMagic: snapMagic}).Frame(payload)
}

// foldDisk is what the log at path folds to now, read from a copy of
// its directory so that nothing on disk changes.
func foldDisk(t *testing.T, path string) (*state, error) {
	t.Helper()
	dir := t.TempDir()
	copyDir(t, filepath.Dir(path), dir)
	w, st, err := seglog.OpenLog(nil, filepath.Join(dir, filepath.Base(path)), walMachine, seglog.LogOptions{})
	if err != nil {
		return nil, err
	}
	return st, w.Close()
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
