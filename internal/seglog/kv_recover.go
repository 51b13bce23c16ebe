package seglog

import (
	"fmt"
	"os"
)

// recover rebuilds the index from disk. The crash-consistency argument:
// segments are never deleted and sealed ones are only ever replaced
// complete (tmp + fsync + rename under a bumped generation), so a full
// rescan in index order — the chronological write order — always
// reproduces the index; the snapshot only ever buys speed, and every
// way it can be wrong (torn, corrupt, older than a rewrite) degrades to
// rescanning more.
func (s *KV) recover() error {
	name, base := s.ly.Name, s.base
	if info, err := os.Stat(base); err == nil && info.Mode().IsRegular() {
		return fmt.Errorf("%s: %s is a pre-segmentation single-file log, unsupported", name, base)
	}
	// Leftover tmp files from interrupted maintenance are garbage: only
	// the atomic renames ever activate them.
	RemoveTmp(base)

	segIdxs, err := s.ly.ListSegments(base)
	if err != nil {
		return err
	}
	// A roll that crashed before completing the 16-byte header leaves a
	// short highest segment with nothing in it; drop it and append to
	// its predecessor.
	if n := len(segIdxs); n > 0 {
		p := SegmentPath(base, segIdxs[n-1])
		if info, err := os.Stat(p); err == nil && info.Size() < HeaderSize {
			if err := os.Remove(p); err != nil {
				return fmt.Errorf("%s: remove torn segment: %w", name, err)
			}
			segIdxs = segIdxs[:n-1]
		}
	}

	var snap *kvIndexSnapshot
	if data, err := s.ly.LoadSnapshotFile(SnapshotPath(base)); err == nil && data != nil {
		// A torn or corrupt snapshot (crash racing the rename, disk fault)
		// leaves snap nil: full rescan.
		snap, _ = s.ly.decodeIndex(data)
	}

	if len(segIdxs) == 0 {
		if snap != nil && len(snap.meta.Segs) > 0 {
			return fmt.Errorf("%s: snapshot covers %d segments but none exist on disk", name, len(snap.meta.Segs))
		}
		seg, err := s.createSegment(1, 1)
		if err != nil {
			return err
		}
		s.segs = []*kvSegment{seg}
		s.active = seg
		s.nextGen.Store(1)
		s.recStats.SegmentsOnDisk = 1
		return nil
	}
	for i, idx := range segIdxs {
		if idx != uint64(i+1) {
			return fmt.Errorf("%s: segment %06d missing (found %06d): data may be lost", name, i+1, idx)
		}
	}
	if snap != nil && len(snap.meta.Segs) > len(segIdxs) {
		return fmt.Errorf("%s: snapshot covers %d segments, only %d exist: data may be lost",
			name, len(snap.meta.Segs), len(segIdxs))
	}

	// Open every segment and validate its header.
	var maxGen uint64
	for i := range segIdxs {
		idx := uint32(i + 1)
		p := s.segmentPath(idx)
		f, err := os.OpenFile(p, os.O_RDWR, 0)
		if err != nil {
			return fmt.Errorf("%s: open segment: %w", name, err)
		}
		seg := &kvSegment{idx: idx, f: f}
		s.segs = append(s.segs, seg) // before any error, so closeFiles sweeps it
		if seg.gen, err = s.ly.ReadHeader(f, p); err != nil {
			return err
		}
		info, err := f.Stat()
		if err != nil {
			return fmt.Errorf("%s: stat segment: %w", name, err)
		}
		seg.size.Store(info.Size())
		maxGen = max(maxGen, seg.gen)
	}
	s.recStats.SegmentsOnDisk = len(s.segs)

	// Seed the index from the snapshot where the generations still
	// match; a mismatch means a compaction rewrote that segment after
	// the snapshot (its offsets are stale) and it joins the rescan.
	highest := uint32(len(s.segs))
	stale := make(map[uint32]bool)
	var rescan []uint32
	if snap != nil {
		s.recStats.SnapshotLoaded = true
		for i, sm := range snap.meta.Segs {
			if idx := uint32(i + 1); s.segs[i].gen != sm.Gen {
				stale[idx] = true
				rescan = append(rescan, idx)
			}
		}
		for _, e := range snap.entries {
			if stale[e.seg] {
				continue
			}
			seg := s.segs[e.seg-1]
			if e.off+int64(e.vlen) > seg.size.Load() {
				return fmt.Errorf("%s: snapshot entry for key %x beyond segment %06d", name, e.key, e.seg)
			}
			s.stripe(e.key).m[e.key] = e.kvEntry
			seg.liveBytes.Add(s.ly.framedSize(len(e.key), e.vlen))
			s.keys.Add(1)
			s.valueBytes.Add(uint64(e.vlen))
			s.recStats.SnapshotEntries++
		}
		// The snapshot persists each covered segment's tombstone bytes, so
		// the reclaim estimates match the pre-restart accounting exactly.
		// Stale segments recompute during their rescan, and the highest is
		// skipped because its rescan below re-adds every tombstone.
		for i, sm := range snap.meta.Segs {
			if idx := uint32(i + 1); !stale[idx] && idx != highest {
				s.segs[i].tombBytes.Store(sm.Tomb)
			}
		}
		for idx := uint32(len(snap.meta.Segs) + 1); idx <= highest; idx++ {
			rescan = append(rescan, idx)
		}
		// The highest segment is rescanned even when the snapshot covers
		// it: a torn roll can demote the active segment back into the
		// covered range, after which post-snapshot records append there —
		// and a torn tail must be truncated before new appends land behind
		// it. Duplicate puts are skipped, so re-visiting records the
		// snapshot already indexed is a no-op.
		if len(rescan) == 0 || rescan[len(rescan)-1] != highest {
			rescan = append(rescan, highest)
		}
	} else {
		for idx := uint32(1); idx <= highest; idx++ {
			rescan = append(rescan, idx)
		}
	}
	s.recStats.StaleRescanned = len(stale)

	// Rescan in index order. dead remembers tombstones seen during this
	// pass so a put record can never resurrect a key whose tombstone sits
	// in an earlier rescanned segment (keys are never reused, so a put
	// legitimately following its tombstone cannot occur).
	dead := make(map[string]bool)
	for _, idx := range rescan {
		seg := s.segs[idx-1]
		size, err := s.ly.scan(&s.ioBuf, seg, s.segmentPath(idx), idx == highest, func(r kvRecord) error {
			s.recStats.RecordsReplayed++
			switch r.kind {
			case kvTomb:
				seg.tombBytes.Add(r.framed())
				dead[r.key] = true
				s.dropEntry(r.key)
			case kvPut:
				st := s.stripe(r.key)
				if _, dup := st.m[r.key]; dup || dead[r.key] {
					return nil // duplicate record: first wins
				}
				st.m[r.key] = kvEntry{seg: idx, off: r.valOff, vlen: r.vlen}
				seg.liveBytes.Add(r.framed())
				s.keys.Add(1)
				s.valueBytes.Add(uint64(r.vlen))
			}
			return nil
		})
		if err != nil {
			return err
		}
		if size < seg.size.Load() {
			// A torn tail was truncated; the truncate must be durable
			// before new records append at the cut, or a crash could
			// resurrect torn bytes beneath valid ones.
			if err := seg.f.Sync(); err != nil {
				return fmt.Errorf("%s: sync truncated segment: %w", name, err)
			}
		}
		seg.size.Store(size)
		s.recStats.SegmentsRescanned++
	}

	s.active = s.segs[highest-1]
	s.nextGen.Store(maxGen)
	return nil
}
