package version

import (
	"fmt"
	"os"
	"path/filepath"

	"blobseer/internal/seglog"
	"blobseer/internal/wire"
)

// The checkpointer turns the write-ahead log from "replay everything"
// into a bounded-recovery subsystem: it folds the sealed segments over
// the previous snapshot — recovery's own function, run in the background
// on the disk's own bytes — into a new snapshot file and deletes the
// segments that one covers. It never reads the live state and no handler
// ever waits for it. Crash-consistency invariants, in order:
//
//  1. The snapshot is fold(previous snapshot, segments below the cut),
//     and the cut is a segment boundary (wal.seal): the snapshot holds
//     exactly the events of the segments it covers — never one the log
//     does not hold, whatever the live state has applied since or a
//     wedged commit left it with.
//  2. The snapshot becomes visible only by the atomic rename of a fully
//     written (and, when syncing, fsynced) tmp file: recovery never sees
//     a half-written snapshot under the live name.
//  3. Segments are deleted only after the rename (and directory sync) —
//     a crash at any point leaves either the old snapshot with all its
//     segments, or the new snapshot with at-worst-extra segments that
//     recovery removes as stale.
//
// The crash-injection tests drive a hook through every fault point below
// and assert the recovered state is byte-identical to an uncrashed
// manager's.
//
// The manager-wide lock order — the checkpointer's mutex outside the
// WAL's, a blob's shard outside the WAL's and outside the registry
// stripes (see the Manager field docs) — in the machine-checked form the
// lockorder analyzer (cmd/blobseer-vet) enforces:
//
//blobseer:lockorder ckptMu < wal.mu
//blobseer:lockorder blobShard.mu < wal.mu
//blobseer:lockorder blobShard.mu < registryStripe.mu

// Checkpoint fault points, in execution order. Tests enumerate these.
const (
	crashBegin          = "begin"           // before anything happened
	crashCaptured       = "captured"        // snapshot payload built, nothing on disk yet
	crashTmpWritten     = "tmp-written"     // tmp snapshot fully written+synced
	crashRenamed        = "renamed"         // snapshot live, segments not yet deleted
	crashSegmentDeleted = "segment-deleted" // after each covered-segment delete
)

// crashPoints lists every fault point in order, for tests that want to
// enumerate them exhaustively.
var crashPoints = []string{crashBegin, crashCaptured, crashTmpWritten, crashRenamed, crashSegmentDeleted}

// crash fires the test seam ManagerConfig.Fault; a non-nil return
// aborts the checkpoint exactly as a crash at that point would (the
// process would simply stop — nothing needs unwinding, recovery handles
// every prefix).
func (m *Manager) crash(point string) error {
	if m.cfg.Fault == nil {
		return nil
	}
	return m.cfg.Fault(point)
}

// Checkpoint folds every event logged before this call into an
// atomically renamed snapshot file and deletes the write-ahead-log
// segments it covers, so a restart folds only events logged after. It
// is a no-op without a WAL, runs beside traffic without stopping any of
// it (the one thing it shares with a handler is the segment roll), and
// is serialized against other checkpoints. The background checkpointer
// calls it every CheckpointEvery events; it is also the on-demand hook.
func (m *Manager) Checkpoint() error {
	if m.log == nil {
		return nil
	}
	m.ckptMu.Lock()
	defer m.ckptMu.Unlock()
	if m.closed.Load() {
		return wire.NewError(wire.CodeUnavailable, "version manager shutting down")
	}
	if err := m.crash(crashBegin); err != nil {
		return err
	}
	w := m.log
	cut, records, err := w.seal()
	if err != nil {
		return err
	}
	fl, err := foldLog(w.base, cut)
	if err != nil {
		return err
	}
	fl.st.nextSeg = cut
	payload := encodeSnapshot(fl.st)
	if err := m.crash(crashCaptured); err != nil {
		return err
	}
	err = walFmt.PublishSnapshot(w.base, payload, w.fsync,
		func() error { return m.crash(crashTmpWritten) },
		func() error { return m.crash(crashRenamed) })
	if err != nil {
		// The countdown survives, so the next pass retries at once.
		return err
	}
	// The snapshot is live: consume the countdown before the
	// (restartable) segment deletes.
	w.covered.Store(records)
	for _, s := range append(fl.stale, fl.live...) {
		if err := os.Remove(seglog.SegmentPath(w.base, s)); err != nil {
			return fmt.Errorf("version: compact wal segment: %w", err)
		}
		if err := m.crash(crashSegmentDeleted); err != nil {
			return err
		}
	}
	if w.fsync {
		if err := seglog.SyncDir(filepath.Dir(w.base)); err != nil {
			return fmt.Errorf("version: sync wal dir after compaction: %w", err)
		}
	}
	m.ckptRuns.Add(1)
	return nil
}

// checkpointPass runs one automatic checkpoint when the maintainer is
// nudged. Checkpointing is disk work with no simulated-time component,
// so the maintainer's plain goroutine is the right vehicle. Errors are
// not fatal — the log simply keeps growing until the next trigger
// succeeds — but each failed pass is counted in the manager's series;
// one that lost the race with Close did not fail.
func (m *Manager) checkpointPass() bool {
	if m.closed.Load() {
		return false
	}
	if err := m.Checkpoint(); err != nil && !m.closed.Load() {
		m.ckptFailures.Add(1)
	}
	return true
}
