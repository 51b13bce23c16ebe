package seglog

import (
	"fmt"
	"sort"
)

// recover rebuilds the index from disk: it opens every segment and
// folds them over the newest valid index snapshot (fold).
func (s *KV) recover() error {
	name, base := s.ly.Name, s.base
	if err := s.ly.refuseSingleFile(s.fs, base); err != nil {
		return err
	}
	// Leftover tmp files from interrupted maintenance are garbage: only
	// the atomic renames ever activate them.
	removeTmp(s.fs, base)

	segIdxs, err := s.ly.listSegments(s.fs, base)
	if err != nil {
		return err
	}
	// A roll that crashed before completing the 16-byte header leaves a
	// short highest segment with nothing in it; drop it and append to
	// its predecessor.
	if n := len(segIdxs); n > 0 {
		p := SegmentPath(base, segIdxs[n-1])
		if f, err := s.fs.OpenFile(p, 0); err == nil {
			size, err := f.Size()
			f.Close()
			if err == nil && size < headerSize {
				if err := s.fs.Remove(p); err != nil {
					return fmt.Errorf("%s: remove torn segment: %w", name, err)
				}
				segIdxs = segIdxs[:n-1]
			}
		}
	}

	snap := s.loadSnapshot()

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

	// Open every segment and validate its header.
	var maxGen uint64
	for i := range segIdxs {
		idx := uint32(i + 1)
		p := s.segmentPath(idx)
		f, err := s.fs.OpenFile(p, 0)
		if err != nil {
			return fmt.Errorf("%s: open segment: %w", name, err)
		}
		seg := &kvSegment{idx: idx, f: f}
		s.segs = append(s.segs, seg) // before any error, so closeFiles sweeps it
		if seg.gen, err = s.ly.readHeader(f, p); err != nil {
			return err
		}
		size, err := f.Size()
		if err != nil {
			return fmt.Errorf("%s: stat segment: %w", name, err)
		}
		seg.size.Store(size)
		maxGen = max(maxGen, seg.gen)
	}

	highest := uint32(len(s.segs))
	fl, err := s.fold(snap, s.segs, true, indexSink{s})
	if err != nil {
		return err
	}
	if snap != nil && int(highest) <= len(snap.meta.Segs) && s.segs[highest-1].gen == snap.meta.Segs[highest-1].Gen {
		// A torn roll made a segment the snapshot covers active again. What
		// appends there from now on is not in the snapshot, so its
		// generation is bumped in place first — durably, before any record
		// lands — and every fold after this one finds it stale and rescans
		// it, as after a rewrite, until a snapshot records the new one.
		seg := s.segs[highest-1]
		maxGen++ // a generation no segment has had
		if err := s.ly.writeHeader(seg.f, maxGen); err != nil {
			return err
		}
		if err := seg.f.Sync(); err != nil {
			return fmt.Errorf("%s: sync segment header: %w", name, err)
		}
		seg.gen = maxGen
	}
	for i, sm := range fl.segs {
		s.segs[i].liveBytes.Store(sm.Live)
		s.segs[i].tombBytes.Store(sm.Tomb)
	}
	s.keys.Store(fl.keys)
	s.valueBytes.Store(fl.valueBytes)
	fl.stats.SegmentsOnDisk = len(s.segs)
	s.recStats = fl.stats
	s.replayed = uint64(fl.stats.RecordsReplayed)
	s.active = s.segs[highest-1]
	s.nextGen.Store(maxGen)
	return nil
}

// loadSnapshot reads back the index snapshot on disk: nil when there is
// none, or when it is torn or corrupt (a crash racing the rename, a disk
// fault) or of an unknown format — a fold then rescans every segment.
func (s *KV) loadSnapshot() *kvIndexSnapshot {
	data, err := s.ly.loadSnapshotFile(s.fs, SnapshotPath(s.base))
	if err != nil || data == nil {
		return nil
	}
	snap, _ := s.ly.decodeIndex(data)
	return snap
}

// kvSink is what a fold builds: the store's own index (recovery) or a
// snapshot's entries (the snapshotter).
type kvSink interface {
	// seed adds the snapshot's entries — sorted by key — but those in a
	// segment stale marks.
	seed(entries []kvSnapEntry, stale []bool)
	// insert adds key's entry unless key is there, and reports whether it
	// did.
	insert(key string, e kvEntry) (bool, error)
	// remove drops key's entry and returns it.
	remove(key string) (kvEntry, bool, error)
}

// indexSink folds into the striped index itself, before the store is
// shared: no lock is taken, not even to read a holder's key off its
// record.
type indexSink struct{ s *KV }

func (x indexSink) seed(entries []kvSnapEntry, stale []bool) {
	for _, e := range entries {
		if stale[e.seg] {
			continue
		}
		h := keyHash(e.key)
		st := x.s.stripeOf(h)
		if _, taken := st.m[h]; taken {
			st.spill[e.key] = e.kvEntry // a snapshot's keys are distinct
		} else {
			st.m[h] = e.kvEntry
		}
	}
}

// holds reports whether e, the entry holding key's hash, is key's.
func (x indexSink) holds(e kvEntry, key string) (bool, error) {
	return recordHasKey(x.s, x.s.segs[e.seg-1].f, e.off, key, nil)
}

func (x indexSink) insert(key string, e kvEntry) (bool, error) {
	h := keyHash(key)
	st := x.s.stripeOf(h)
	if _, dup := st.spill[key]; dup {
		return false, nil
	}
	held, taken := st.m[h]
	if !taken {
		st.m[h] = e
		return true, nil
	}
	if dup, err := x.holds(held, key); dup || err != nil {
		return false, err
	}
	st.spill[key] = e
	return true, nil
}

func (x indexSink) remove(key string) (kvEntry, bool, error) {
	h := keyHash(key)
	st := x.s.stripeOf(h)
	if e, ok := st.spill[key]; ok {
		delete(st.spill, key)
		return e, true, nil
	}
	e, ok := st.m[h]
	if !ok {
		return kvEntry{}, false, nil
	}
	if ok, err := x.holds(e, key); !ok || err != nil {
		return kvEntry{}, false, err
	}
	delete(st.m, h)
	return e, true, nil
}

// snapSink is the snapshotter's: the previous snapshot's entries, in key
// order, under an overlay of what the fold changed. The few keys one
// snapshot interval adds sit in a map, so the next snapshot's entries
// are a merge of two sorted runs, not a sort of every key.
type snapSink struct {
	base  []kvSnapEntry // sorted by key
	gone  []bool        // base[i] is not in the index
	added map[string]kvEntry
}

func (x *snapSink) seed(entries []kvSnapEntry, stale []bool) {
	x.base, x.gone = entries, make([]bool, len(entries))
	for i, e := range entries {
		x.gone[i] = stale[e.seg]
	}
}

// find returns the position of key in base, and whether it is there.
func (x *snapSink) find(key string) (int, bool) {
	i := sort.Search(len(x.base), func(i int) bool { return x.base[i].key >= key })
	return i, i < len(x.base) && x.base[i].key == key
}

func (x *snapSink) insert(key string, e kvEntry) (bool, error) {
	if _, dup := x.added[key]; dup {
		return false, nil
	}
	if i, ok := x.find(key); ok {
		if !x.gone[i] {
			return false, nil
		}
		x.base[i].kvEntry, x.gone[i] = e, false // a stale segment's survivor, at its new offset
		return true, nil
	}
	x.added[key] = e
	return true, nil
}

func (x *snapSink) remove(key string) (kvEntry, bool, error) {
	if e, ok := x.added[key]; ok {
		delete(x.added, key)
		return e, true, nil
	}
	if i, ok := x.find(key); ok && !x.gone[i] {
		x.gone[i] = true
		return x.base[i].kvEntry, true, nil
	}
	return kvEntry{}, false, nil
}

// entries is the sink's content in key order.
func (x *snapSink) entries() []kvSnapEntry {
	added := make([]kvSnapEntry, 0, len(x.added))
	for key, e := range x.added {
		added = append(added, kvSnapEntry{key: key, kvEntry: e})
	}
	sort.Slice(added, func(i, j int) bool { return added[i].key < added[j].key })
	out := make([]kvSnapEntry, 0, len(x.base)+len(added))
	for i, e := range x.base {
		if x.gone[i] {
			continue
		}
		for len(added) > 0 && added[0].key < e.key {
			out, added = append(out, added[0]), added[1:]
		}
		out = append(out, e)
	}
	return append(out, added...)
}

// kvFolded is what a fold read off the disk.
type kvFolded struct {
	// segs describes each folded segment at the end of the fold: its
	// generation, the framed bytes of the records the sink points at, and
	// of its tombstones.
	segs             []segMeta
	keys, valueBytes uint64 // the sink's entries, and their summed value sizes
	stats            recoveryStats
}

// fold is index = fold(snapshot, segments): it seeds sink with snap's
// entries (none when snap is nil) and replays over them, in index order,
// every segment of segs the snapshot cannot vouch for — one it does not
// cover, and one whose generation differs from the one it recorded (a
// compaction rewrote it after the snapshot, or recovery found it made
// active again by a torn roll). Recovery folds every segment on disk
// into the index (recovering): the highest is rescanned even when
// covered — appends go there, and a torn tail left by a crash
// mid-append is truncated away. The snapshotter folds the sealed
// segments into the next snapshot's entries. Neither reads anything but
// the disk, and nothing on disk changes but a torn tail. Segment files
// are read under their read locks, so a fold runs beside readers and
// appenders; its caller holds maintMu (or has not shared the store
// yet), so no rewrite swaps a file under it.
//
// The crash-consistency argument: segments are never deleted and sealed
// ones are only ever replaced complete (tmp + fsync + rename under a
// bumped generation), so a rescan in index order — the chronological
// write order — always reproduces the index; the snapshot only ever buys
// speed, and every way it can be wrong (torn, corrupt, older than a
// rewrite) degrades to rescanning more.
func (s *KV) fold(snap *kvIndexSnapshot, segs []*kvSegment, recovering bool, sink kvSink) (*kvFolded, error) {
	name := s.ly.Name
	fl := &kvFolded{segs: make([]segMeta, len(segs))}
	for i, seg := range segs {
		fl.segs[i].Gen = seg.gen
	}
	covered := 0
	if snap != nil {
		covered = len(snap.meta.Segs)
		if covered > len(segs) {
			return nil, fmt.Errorf("%s: snapshot covers %d segments, only %d exist: data may be lost", name, covered, len(segs))
		}
	}
	// By segment index: which to rescan, and which of those are stale.
	rescan, stale := make([]bool, len(segs)+1), make([]bool, len(segs)+1)
	for idx := uint32(1); int(idx) <= len(segs); idx++ {
		stale[idx] = int(idx) <= covered && segs[idx-1].gen != snap.meta.Segs[idx-1].Gen
		rescan[idx] = stale[idx] || int(idx) > covered || recovering && int(idx) == len(segs)
		if stale[idx] {
			fl.stats.StaleRescanned++
		}
	}
	if snap != nil {
		fl.stats.SnapshotLoaded = true
		for _, e := range snap.entries {
			if stale[e.seg] {
				continue // the rescan re-indexes the segment's survivors
			}
			if e.off+int64(e.vlen) > segs[e.seg-1].size.Load() {
				return nil, fmt.Errorf("%s: snapshot entry for key %x beyond segment %06d", name, e.key, e.seg)
			}
			fl.segs[e.seg-1].Live += s.ly.framedSize(e.vlen)
			fl.keys++
			fl.valueBytes += uint64(e.vlen)
			fl.stats.SnapshotEntries++
		}
		sink.seed(snap.entries, stale)
		// The snapshot persists each covered segment's tombstone bytes, so
		// the reclaim estimates match the pre-restart accounting exactly; a
		// rescanned segment recounts its own.
		for i, sm := range snap.meta.Segs {
			if !rescan[i+1] {
				fl.segs[i].Tomb = sm.Tomb
			}
		}
	}

	// dead remembers tombstones seen during the rescans so a put record can
	// never resurrect a key whose tombstone sits in an earlier rescanned
	// segment (keys are never reused, so a put legitimately following its
	// tombstone cannot occur).
	dead := make(map[string]bool)
	for idx := uint32(1); int(idx) <= len(segs); idx++ {
		if !rescan[idx] {
			continue
		}
		seg, sm := segs[idx-1], &fl.segs[idx-1]
		torn := recovering && int(idx) == len(segs)
		seg.mu.RLock()
		size, err := s.ly.scan(&s.ioBuf, seg, s.segmentPath(idx), torn, func(r kvRecord) error {
			fl.stats.RecordsReplayed++
			switch r.kind {
			case kvTomb:
				sm.Tomb += r.framed()
				dead[r.key] = true
				e, ok, err := sink.remove(r.key)
				if ok {
					fl.segs[e.seg-1].Live -= s.ly.framedSize(e.vlen)
					fl.keys--
					fl.valueBytes -= uint64(e.vlen)
				}
				return err
			case kvPut:
				if dead[r.key] {
					return nil
				}
				ok, err := sink.insert(r.key, kvEntry{seg: idx, off: r.valOff, vlen: r.vlen})
				if ok {
					sm.Live += r.framed()
					fl.keys++
					fl.valueBytes += uint64(r.vlen)
				} // else a duplicate record: first wins
				return err
			}
			return nil
		})
		seg.mu.RUnlock()
		if err != nil {
			return nil, err
		}
		if torn && size < seg.size.Load() {
			// A torn tail was truncated; the truncate must be durable
			// before new records append at the cut, or a crash could
			// resurrect torn bytes beneath valid ones.
			if err := seg.f.Sync(); err != nil {
				return nil, fmt.Errorf("%s: sync truncated segment: %w", name, err)
			}
			seg.size.Store(size)
		}
		fl.stats.SegmentsRescanned++
	}
	return fl, nil
}
