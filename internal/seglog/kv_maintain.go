package seglog

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
)

// Maintenance turns a KV from "rescan everything on open, grow forever"
// into a bounded store: the snapshotter folds the sealed segments over
// the previous index snapshot — recovery's own function, run in the
// background on the disk's own bytes — so reopen replays only the tail,
// and the compactor rewrites sealed segments whose live-byte ratio fell
// below the configured threshold, dropping records of Deleted keys and
// duplicate puts; an explicit Compact first seals the active segment
// when it would qualify. Neither reads the live index to persist it, and
// no appender ever waits for either. Crash-consistency invariants, in
// order:
//
//  1. The snapshot is fold(previous snapshot, segments below the cut),
//     and the cut is a segment boundary (seal, through the committer's
//     hand-off, which Compact's seal shares): the snapshot holds exactly
//     what replaying the segments it covers yields — never a record the
//     log does not hold, whatever has been applied since. A segment
//     rewritten since the previous snapshot fails its generation check
//     and is rescanned, so compaction's retargets reach the snapshot
//     with no bookkeeping of their own. The fold reads records through
//     the CRC-checked scan, as recovery does, never the key-only walk:
//     reopen trusts a snapshot entry, so a rotted key must not enter
//     one. Its price is one sequential read of every newly sealed byte
//     per snapshot (and, after a compaction, of the rewritten segments),
//     in the background.
//  2. Snapshots and compaction outputs become visible only by the
//     atomic rename of a fully written (and, for compaction, always
//     fsynced) tmp file: recovery never sees a half-written one.
//  3. A compaction rewrite bumps the segment's generation. The index
//     snapshot records the generation of every covered segment, so a
//     crash after the rename but before the follow-up snapshot is
//     detected on reopen (generation mismatch) and that segment alone
//     is rescanned instead of trusting stale offsets.
//  4. Tombstone records are preserved by rewrites while some earlier
//     segment still holds a put for their key, so a full rescan — the
//     fallback, and the only reopen of a store that keeps no snapshot —
//     can never resurrect a Deleted key. Once
//     the last such put is gone the tombstone is dead weight and the
//     rewrite drops it (see hygiene.go).
//
// The crash-injection table drives a hook through every fault point
// below, for both layouts — 64 KiB pages under 16-byte keys, small
// tree nodes under 33-byte ones — and asserts the recovered pairs are
// byte-identical to an uncrashed store's.

// Maintenance fault points, in execution order.
const (
	crashSnapBegin      = "snap-begin"       // before anything happened
	crashSnapCaptured   = "snap-captured"    // fold built, nothing on disk yet
	crashSnapTmpWritten = "snap-tmp-written" // tmp snapshot fully written (+synced)
	crashSnapRenamed    = "snap-renamed"     // snapshot live

	crashCompactSealed     = "compact-sealed"      // explicit Compact rolled the active segment, nothing rewritten yet
	crashCompactTmpWritten = "compact-tmp-written" // rewrite tmp fully written+synced
	crashCompactRenamed    = "compact-renamed"     // rewrite live, index not yet updated
	crashCompactApplied    = "compact-applied"     // index updated, snapshot not yet rewritten
)

// crashPoints lists every fault point, for tests that enumerate them
// exhaustively: in execution order, except that compact-sealed, added
// last, runs before the other compaction points.
var crashPoints = []string{
	crashSnapBegin, crashSnapCaptured, crashSnapTmpWritten, crashSnapRenamed,
	crashCompactTmpWritten, crashCompactRenamed, crashCompactApplied,
	crashCompactSealed,
}

// crash fires the test seam KVOptions.Fault; a non-nil return aborts
// the maintenance pass exactly as a process death at that point would —
// nothing needs unwinding, recovery handles every prefix.
func (s *KV) crash(point string) error {
	if s.opts.Fault == nil {
		return nil
	}
	return s.opts.Fault(point)
}

// maintainPass is one background maintenance pass, spawned by a nudge.
// A failed pass is counted, and left for the next nudge to retry.
func (s *KV) maintainPass() {
	if s.closed.Load() {
		return
	}
	if s.due(s.opts.SnapshotEvery) {
		countFailure(&s.snapFailures, s.Snapshot())
	}
	if s.opts.CompactRatio > 0 {
		// Sealed segments only: a pass runs after every tombstone batch, and
		// sealing here would cut the log into a segment per batch.
		countFailure(&s.compactFailures, s.compact(false))
	}
}

// countFailure counts a failed pass; losing the race with Close is not one.
func countFailure(n *atomic.Uint64, err error) {
	if err != nil && !errors.Is(err, ErrClosed) {
		n.Add(1)
	}
}

// Snapshot writes an index snapshot into an atomically renamed file, so
// the next reopen replays only records logged after this call. It seals
// the active segment and folds the sealed segments over the previous
// snapshot, off the disk: traffic goes on beside it, and it is
// serialized against compaction.
func (s *KV) Snapshot() error {
	s.maintMu.Lock()
	defer s.maintMu.Unlock()
	return s.snapshotLocked()
}

func (s *KV) snapshotLocked() error {
	if s.closed.Load() {
		return s.errClosed
	}
	if err := s.crash(crashSnapBegin); err != nil {
		return err
	}
	// The seal rolls an active segment that holds records, or that the
	// previous snapshot covers — one a torn roll made active again — so
	// the cut is past every segment the fold starts from.
	prev, prevSegs := s.loadSnapshot(), 0
	if prev != nil {
		prevSegs = len(prev.meta.Segs)
	}
	_, cut, records, err := s.seal(func(active *kvSegment) bool {
		return active.size.Load() > headerSize || int(active.idx) <= prevSegs
	})
	if err != nil {
		return err
	}
	payload, err := s.foldSnapshot(prev, cut)
	if err != nil {
		return err
	}
	if err := s.crash(crashSnapCaptured); err != nil {
		return err
	}
	if err := s.ly.publishSnapshot(s.fs, s.base, payload, s.opts.Sync,
		func() error { return s.crash(crashSnapTmpWritten) },
		func() error { return s.crash(crashSnapRenamed) },
	); err != nil {
		// The countdown survives, so the next maintenance pass retries
		// immediately instead of logging another SnapshotEvery records
		// uncovered.
		return err
	}
	// Only now — the snapshot is live — consume the countdown.
	s.covered.Store(records)
	s.snapRuns.Add(1)
	return nil
}

// foldSnapshot is the payload of the next snapshot: the sealed segments
// 1..cut folded over prev, the snapshot on disk.
func (s *KV) foldSnapshot(prev *kvIndexSnapshot, cut uint32) ([]byte, error) {
	s.segMu.RLock()
	segs := s.segs[:cut:cut]
	s.segMu.RUnlock()
	index := &snapSink{added: make(map[string]kvEntry)}
	fl, err := s.fold(prev, segs, false, index)
	if err != nil {
		return nil, err
	}
	return s.ly.encodeIndex(&kvIndexSnapshot{meta: indexMeta{Segs: fl.segs}, entries: index.entries()}), nil
}

// seal rolls the active segment when roll, given it, says so, through
// the committer's hand-off (Committer.SealLocked): at once when no
// leader is designated or mid-batch, else at the leader's batch tail —
// no commit is in flight either way, so the counters roll reads are
// exact. It reports whether it rolled, how many segments are sealed, and
// how many records the log held then (appended, or replayed at open) —
// all of them below the cut when the active segment is left empty.
func (s *KV) seal(roll func(active *kvSegment) bool) (rolled bool, cut uint32, records uint64, err error) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	err = s.comm.SealLocked(func() error {
		if roll(s.active) {
			if err := s.rollLocked(); err != nil {
				return err
			}
			rolled = true
		}
		cut, records = s.active.idx-1, s.logged()
		return nil
	})
	return rolled, cut, records, err
}

// Compact rewrites every segment whose live-byte ratio is below
// CompactRatio (or, when CompactRatio is zero, below 1 — on-demand
// compaction reclaims whatever it can) and that holds reclaimable
// bytes. The active segment is among them: when it would qualify, it
// is sealed first, so the garbage a sweep just left in the tail is
// reclaimed now rather than once the segment fills. Pairs still
// indexed — every key not explicitly Deleted — are preserved
// byte-identically; only records of Deleted keys, duplicate puts, and
// tombstones with no earlier put left to suppress are dropped.
//
// Compact keeps an existing index snapshot current — it writes a fresh
// one covering the rewrites when SnapshotEvery is positive or the store
// has a snapshot file — but never creates the first one: a store that
// keeps no snapshots reopens by rescanning, rewritten segments included.
func (s *KV) Compact() error { return s.compact(true) }

// compact is Compact; the background pass runs it without sealing the
// active segment.
func (s *KV) compact(sealActive bool) error {
	s.maintMu.Lock()
	defer s.maintMu.Unlock()
	if s.closed.Load() {
		return s.errClosed
	}
	ratio := s.opts.CompactRatio
	if ratio <= 0 {
		ratio = 1
	}
	if sealActive {
		sealed, err := s.sealVictim(ratio)
		if err == nil && sealed {
			err = s.crash(crashCompactSealed)
		}
		if err != nil {
			return err
		}
	}
	rewrote := false
	for victim := s.pickVictim(ratio); victim != nil; victim = s.pickVictim(ratio) {
		if err := s.rewriteSegment(victim); err != nil {
			return err
		}
		rewrote = true
	}
	if rewrote && (s.opts.SnapshotEvery > 0 || s.hasSnapshotFile()) {
		// The store keeps a snapshot, automatically or because it has a
		// snapshot file: cover the rewrites so reopen trusts the new
		// offsets instead of taking the generation-mismatch rescan path.
		return s.snapshotLocked()
	}
	return nil
}

// hasSnapshotFile reports whether a snapshot file exists: one loaded at
// open, published since, or left live by a publish that failed after
// its rename.
func (s *KV) hasSnapshotFile() bool {
	f, err := s.fs.OpenFile(SnapshotPath(s.base), 0)
	if err == nil {
		f.Close()
	}
	return err == nil
}

// qualifies reports whether seg would be a compaction victim at ratio:
// it holds reclaimable bytes and its live ratio is below the threshold.
func qualifies(seg *kvSegment, ratio float64) bool {
	payload := seg.size.Load() - headerSize
	live := seg.liveBytes.Load()
	return payload-live-seg.tombBytes.Load() > 0 && float64(live)/float64(payload) < ratio
}

// sealVictim seals the active segment if it qualifies as a victim. The
// first look reads the counters as they stand, so a Compact with a clean
// tail asks nothing of the committer; a candidate is checked again where
// the seal runs, where the counters are exact.
func (s *KV) sealVictim(ratio float64) (bool, error) {
	s.wmu.Lock()
	active := s.active
	s.wmu.Unlock()
	if !qualifies(active, ratio) {
		return false, nil
	}
	rolled, _, _, err := s.seal(func(active *kvSegment) bool { return qualifies(active, ratio) })
	return rolled, err
}

// pickVictim returns the lowest sealed segment that qualifies — or, when
// none does, the lowest hygiene-flagged one (an earlier rewrite dropped
// a put, so tombstones there may now be droppable). Compact rewrites
// every victim either way; taking them in segment order rewrites a
// segment before the later ones whose tombstones its puts may be the
// last reason for, so fewer of those are flagged and rewritten twice. A
// freshly rewritten segment estimates zero reclaimable bytes and carries
// no flag, so compaction always terminates.
func (s *KV) pickVictim(ratio float64) *kvSegment {
	s.wmu.Lock()
	sealed := s.active.idx - 1 // never the active segment
	s.wmu.Unlock()
	if s.closed.Load() {
		return nil
	}
	s.segMu.RLock()
	defer s.segMu.RUnlock()
	var flagged *kvSegment
	for _, seg := range s.segs[:sealed] {
		if seg.size.Load() <= headerSize {
			seg.hygiene.Store(false)
			continue
		}
		if qualifies(seg, ratio) {
			return seg
		}
		if flagged == nil && seg.hygiene.Load() {
			flagged = seg
		}
	}
	return flagged
}

// retarget points the entry of the record at (seg, off), key's, at
// newOff instead, if the index still holds that record: as key's spill
// entry, or as the entry holding h, key's hash. An entry at exactly a
// record's offset is that record's key's, so no disk is read. Called
// with st.mu held.
func (st *kvStripe) retarget(h uint64, key string, seg uint32, off, newOff int64) {
	if e, ok := st.spill[key]; ok {
		if e.seg == seg && e.off == off {
			e.off = newOff
			st.spill[key] = e
		}
	} else if e, ok := st.m[h]; ok && e.seg == seg && e.off == off {
		e.off = newOff
		st.m[h] = e
	}
}

// keptRecord is one record surviving a rewrite: where it is in the old
// file, and where its value lands in the new one.
type keptRecord struct {
	kvRecord
	newOff int64
}

// errHygieneDone stops the tombstone-hygiene sweep early once every
// tombstone in the victim is known to be needed.
var errHygieneDone = errors.New("hygiene scan complete")

// neededTombs resolves the hygiene rule for one victim: which of its
// tombstones still have a put record in some earlier segment to
// suppress. Earlier segments are sealed and maintMu excludes any other
// rewrite, so their files are stable. The sweep wants keys only
// (KVLayout.walk): reading every page body would make it cost the whole
// store.
func (s *KV) neededTombs(victim *kvSegment, tombs map[string]bool) (map[string]bool, error) {
	return filterTombs(tombs, func(observe func(string) bool) error {
		visit := func(p []byte, _ int64, _ uint32) error {
			// The map lookup keeps the sweep allocation-free: a key string is
			// only built for a record that does suppress a tombstone.
			if key, ok := s.ly.putKey(p); ok && tombs[string(key)] && !observe(string(key)) {
				return errHygieneDone
			}
			return nil
		}
		for idx := uint32(1); idx < victim.idx; idx++ {
			seg := s.segment(idx)
			seg.mu.RLock()
			_, err := s.ly.walk(&s.ioBuf, seg, s.segmentPath(idx), visit)
			seg.mu.RUnlock()
			if errors.Is(err, errHygieneDone) {
				return nil
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
}

// checkLocated fails a rewrite whose first pass missed a record the
// index points at. The walk reads a skimmed put's key without a CRC,
// and a key that rotted names no entry of the index (or some other
// record's): its record — live, its value intact — was just counted as
// garbage, pass 2 would never read it, and the real key's entry would
// keep its old offset into the rewritten file. The accounting knows what
// the walk cannot: liveBytes is the framed size of exactly the records
// the index holds in the victim, so the kept puts still indexed must add
// up to it. Both are read under wmu, which every apply — the only change
// of either — runs under, for as long as one lookup per kept put takes;
// a Delete since the walk has taken the same bytes off both. A walk that
// skimmed nothing CRC-checked every key it read, so the rewrite skips
// this check, and writers never wait on it.
func (s *KV) checkLocated(victim *kvSegment, kept []keptRecord, path string) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	var located int64
	for i := range kept {
		k := &kept[i]
		if e, ok := s.lookup(k.key); ok && k.kind == kvPut && e.seg == victim.idx && e.off == k.valOff {
			located += k.framed()
		}
	}
	if live := victim.liveBytes.Load(); located != live {
		return fmt.Errorf("%s: the index holds %d bytes of records in %s, the records found there under their keys come to %d: log corrupted",
			s.ly.Name, live, path, located)
	}
	return nil
}

// rewriteSegment compacts one sealed segment in place: the records
// still live — puts the index points at, and tombstones some earlier
// segment still holds a put for — are written to a tmp file under a
// fresh generation, fsynced, renamed over the segment (see
// SegmentWriter for why the fsync is unconditional), and the index
// entries are retargeted to the new offsets under the segment lock.
// Readers mid-pread keep the old file handle and stay correct; the old
// inode lives until their locks release.
//
// It runs in two passes and never holds more of the segment than one
// window. Pass 1 locates the records (KVLayout.walk) and keeps, for
// each survivor, only where it is. Pass 2 copies the survivors, in
// file order, as runs of frames that were adjacent in the old file:
// each run is read in pieces of whole frames up to ioWindow long into
// the store's ioBuf, every frame in the piece is checked against what
// pass 1 saw of it — magic, length, CRC — and the piece goes to the
// SegmentWriter with one write. The check is why this is not a
// kernel-side file copy: a rewrite that copied blindly would launder a
// rotten record into a fresh generation under a fresh fsync. A frame
// that fails it fails the rewrite before anything was activated. What
// pass 1 drops it never reads past the key, so rot there goes out with
// the garbage — and checkLocated sees to it that nothing live is among
// what it drops.
func (s *KV) rewriteSegment(victim *kvSegment) error {
	if s.closed.Load() {
		return s.errClosed
	}
	path := s.segmentPath(victim.idx)
	var kept []keptRecord
	tombs := make(map[string]bool)
	droppedPut := false
	skimmed, err := s.ly.walk(&s.ioBuf, victim, path, s.ly.locating(path, func(r kvRecord) error {
		switch r.kind {
		case kvTomb:
			tombs[r.key] = true
			kept = append(kept, keptRecord{kvRecord: r})
		case kvPut:
			// Keep only the record the index points at: duplicates and
			// Deleted keys are dropped. A concurrent Delete between this
			// check and the apply below is re-checked there.
			if e, ok := s.lookup(r.key); ok && e.seg == victim.idx && e.off == r.valOff {
				kept = append(kept, keptRecord{kvRecord: r})
			} else {
				droppedPut = true
			}
		}
		return nil
	}))
	if err != nil {
		return err
	}
	if skimmed {
		if err := s.checkLocated(victim, kept, path); err != nil {
			return err
		}
	}

	if len(tombs) > 0 {
		needed, err := s.neededTombs(victim, tombs)
		if err != nil {
			return err
		}
		kept = slices.DeleteFunc(kept, func(k keptRecord) bool { return k.kind == kvTomb && !needed[k.key] })
	}

	newGen := s.nextGen.Add(1)
	w, err := s.ly.newSegmentWriter(s.fs, compactTmpPath(s.base), newGen)
	if err != nil {
		return err
	}
	var tombBytes int64
	for i := 0; i < len(kept); {
		// One piece: kept[i:j], adjacent in the old file, ioWindow at most
		// unless a single record is larger.
		start, n := kept[i].frameOff(), kept[i].framed()
		j := i + 1
		for ; j < len(kept) && kept[j].frameOff() == start+n && n+kept[j].framed() <= ioWindow; j++ {
			n += kept[j].framed()
		}
		piece := resize(&s.ioBuf, int(n))
		if _, err := victim.f.ReadAt(piece, start); err != nil {
			w.Abort()
			return fmt.Errorf("%s: read records at %d of %s: %w", s.ly.Name, start, path, err)
		}
		// The packed order decides the new offsets: the piece lands at the
		// writer's end, each frame as far into it as it was into the piece.
		shift := w.Size() - start
		for ; i < j; i++ {
			k := &kept[i]
			if err := s.ly.checkFrame(piece[k.frameOff()-start:][:k.framed()], path, k.frameOff()); err != nil {
				w.Abort()
				return err
			}
			k.newOff = k.valOff + shift
			if k.kind == kvTomb {
				tombBytes += k.framed()
			}
		}
		if _, err := w.Append(piece); err != nil {
			w.Abort()
			return err
		}
	}
	if err := w.Commit(path,
		func() error { return s.crash(crashCompactTmpWritten) },
		func() error { return s.crash(crashCompactRenamed) },
	); err != nil {
		return err
	}

	// Swap the handle and retarget the index as one unit under the
	// segment lock; Get re-fetches entries under it. The retarget goes by
	// location, as pass 1 and checkLocated do: a check that read the key
	// would wait for this very lock.
	victim.mu.Lock()
	old := victim.f
	victim.f = w.File()
	victim.gen = newGen
	victim.size.Store(w.Size())
	for i := range kept {
		k := &kept[i]
		if k.kind != kvPut {
			continue
		}
		h := keyHash(k.key)
		st := s.stripeOf(h)
		st.mu.Lock()
		st.retarget(h, k.key, victim.idx, k.valOff, k.newOff)
		st.mu.Unlock()
	}
	// liveBytes stays as it is: a retargeted record is as large as it was,
	// and a Delete racing this loop has taken, or will take, its own bytes
	// off. Storing a sum made here would count such a record twice over or
	// not at all, and checkLocated needs the counter exact.
	victim.tombBytes.Store(tombBytes)
	victim.hygiene.Store(false)
	victim.mu.Unlock()
	old.Close()
	if droppedPut {
		// The dropped puts may have been the last reason tombstones in
		// later segments existed; flag them so this compaction pass
		// re-evaluates the rule there too. Flags are only ever set when a
		// record was actually dropped, so the cascade terminates.
		s.segMu.RLock()
		for _, seg := range s.segs[victim.idx:] {
			if seg.tombBytes.Load() > 0 {
				seg.hygiene.Store(true)
			}
		}
		s.segMu.RUnlock()
	}
	s.compactRuns.Add(1)
	return s.crash(crashCompactApplied)
}
