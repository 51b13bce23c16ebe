package seglog

import (
	"encoding/binary"
	"errors"
	"path/filepath"
	"testing"
)

// crashOpts uses segments small enough that the workload spans many of
// them, so compaction has real victims to crash on.
func crashOpts() KVOptions {
	return KVOptions{Sync: true, SegmentBytes: 256}
}

const crashKeys = 24

// crashWorkload drives a deterministic history with everything the
// snapshotter and compactor must preserve: pairs spread over many
// segments, deletions before the snapshot (reclaimable, reflected in
// the snapshot), a snapshot, and deletions after it (tombstones only in
// the tail). Afterwards exactly the keys crashLive selects survive.
func crashWorkload(t *testing.T, s *KV) {
	t.Helper()
	putN(t, s, 0, crashKeys)
	deleteIf(t, s, crashKeys, func(i int) bool { return i%3 == 1 })
	must(t, s.Snapshot())
	deleteIf(t, s, crashKeys, func(i int) bool { return i%3 == 2 })
}

func crashLive(i int) bool { return i%3 == 0 }

// compactDeadTail leaves a dead pair in the active segment — past the
// keys crashLive judges — so the Compact that follows seals it. The
// snapshot before it starts a fresh segment, so the pair cannot
// straddle a roll.
func compactDeadTail(s *KV) error {
	if err := s.Snapshot(); err != nil {
		return err
	}
	if err := s.Put(tkey(s.ly, crashKeys), tval(crashKeys)); err != nil {
		return err
	}
	if err := s.Delete(tkey(s.ly, crashKeys)); err != nil {
		return err
	}
	return s.Compact()
}

// crashAtPoint arms s to die at one fault point: the maintenance pass
// aborts with errCrash exactly as a process death there would, and the
// test then reopens on whatever the disk holds.
func crashAtPoint(s *KV, point string) (fired *bool) {
	fired = new(bool)
	s.opts.Fault = func(p string) error {
		if p == point {
			*fired = true
			return errCrash
		}
		return nil
	}
	return fired
}

// TestKVMaintenanceCrashInjection kills the snapshotter and the
// compactor at every fault point — plus torn-file variants a hook
// cannot express — and asserts the recovered pairs are byte-identical
// to an uncrashed store's.
func TestKVMaintenanceCrashInjection(t *testing.T) {
	eachLayout(t, func(t *testing.T, ly *KVLayout) {
		// The control must survive a clean restart unchanged, or the
		// comparisons below prove nothing.
		controlPath := filepath.Join(t.TempDir(), "kv.log")
		control := mustOpenKV(t, controlPath, ly, crashOpts())
		crashWorkload(t, control)
		verifyLive(t, control, crashKeys, crashLive)
		must(t, control.Close())
		verifyLive(t, mustOpenKV(t, controlPath, ly, crashOpts()), crashKeys, crashLive)

		type tamper func(t *testing.T, base string)
		cases := []struct {
			name   string
			op     func(*KV) error // what the hook crashes; nil = tamper only
			point  string
			tamper tamper
		}{
			{name: "snap-begin", op: (*KV).Snapshot, point: crashSnapBegin},
			{name: "snap-captured", op: (*KV).Snapshot, point: crashSnapCaptured},
			{name: "snap-tmp-written", op: (*KV).Snapshot, point: crashSnapTmpWritten},
			{name: "snap-renamed", op: (*KV).Snapshot, point: crashSnapRenamed},
			{name: "compact-tmp-written", op: (*KV).Compact, point: crashCompactTmpWritten},
			{name: "compact-renamed", op: (*KV).Compact, point: crashCompactRenamed},
			{name: "compact-applied", op: (*KV).Compact, point: crashCompactApplied},
			{name: "compact-sealed", op: compactDeadTail, point: crashCompactSealed},
			{name: "torn-snapshot-tmp", op: (*KV).Snapshot, point: crashSnapTmpWritten, tamper: func(t *testing.T, base string) {
				truncateTail(t, SnapshotTmpPath(base), 7)
			}},
			{name: "torn-snapshot", op: (*KV).Snapshot, point: crashSnapRenamed, tamper: func(t *testing.T, base string) {
				truncateTail(t, SnapshotPath(base), 7)
			}},
			{name: "corrupt-snapshot-crc", op: (*KV).Snapshot, point: crashSnapRenamed, tamper: func(t *testing.T, base string) {
				flipByte(t, SnapshotPath(base), FrameHeaderSize+3)
			}},
			{name: "torn-compact-tmp", op: (*KV).Compact, point: crashCompactTmpWritten, tamper: func(t *testing.T, base string) {
				truncateTail(t, compactTmpPath(base), 5)
			}},
			{name: "torn-segment-tail", tamper: func(t *testing.T, base string) {
				// A crash mid-append of a record that never applied: a valid
				// frame header claiming more payload than follows.
				var hdr [FrameHeaderSize]byte
				binary.LittleEndian.PutUint32(hdr[0:4], ly.RecMagic)
				binary.LittleEndian.PutUint32(hdr[4:8], 64)
				binary.LittleEndian.PutUint32(hdr[8:12], 0xBAD)
				appendBytes(t, SegmentPath(base, uint64(segmentCount(t, ly, base))), hdr[:])
			}},
		}
		for _, tc := range cases {
			t.Run(tc.name, func(t *testing.T) {
				base := filepath.Join(t.TempDir(), "kv.log")
				s := mustOpenKV(t, base, ly, crashOpts())
				crashWorkload(t, s)
				if tc.op != nil {
					fired := crashAtPoint(s, tc.point)
					if err := tc.op(s); !errors.Is(err, errCrash) {
						t.Fatalf("maintenance survived the injected crash: %v", err)
					}
					if !*fired {
						t.Fatalf("fault point %q never reached", tc.point)
					}
				}
				must(t, s.Close()) // process death: nothing else runs
				if tc.tamper != nil {
					tc.tamper(t, base)
				}
				s2 := mustOpenKV(t, base, ly, crashOpts())
				verifyLive(t, s2, crashKeys, crashLive)
				// The recovered store still serves: new pairs, deletes, and
				// another maintenance pass all work.
				putN(t, s2, 1000, 1001)
				must(t, s2.Delete(tkey(ly, 1000)))
				must(t, s2.Compact())
				verifyLive(t, s2, crashKeys, crashLive)
			})
		}
	})
}

// TestKVEveryCrashPointIsExercised keeps the fault-point table honest:
// a snapshot plus a compaction with work to do, the active segment's
// included, must pass through every declared point.
func TestKVEveryCrashPointIsExercised(t *testing.T) {
	eachLayout(t, func(t *testing.T, ly *KVLayout) {
		s := mustOpenKV(t, filepath.Join(t.TempDir(), "kv.log"), ly, crashOpts())
		crashWorkload(t, s)
		seen := make(map[string]bool)
		s.opts.Fault = func(p string) error {
			seen[p] = true
			return nil
		}
		must(t, compactDeadTail(s))
		for _, p := range crashPoints {
			if !seen[p] {
				t.Errorf("maintenance never reached fault point %q", p)
			}
		}
	})
}

// TestKVCompactionCrashThenCompactAgain drives the generation-mismatch
// recovery path end to end: crash after the rewrite is live but before
// the covering snapshot, recover (stale rescan), then compact again.
func TestKVCompactionCrashThenCompactAgain(t *testing.T) {
	eachLayout(t, func(t *testing.T, ly *KVLayout) {
		base := filepath.Join(t.TempDir(), "kv.log")
		s := mustOpenKV(t, base, ly, crashOpts())
		crashWorkload(t, s)
		crashAtPoint(s, crashCompactApplied)
		if err := s.Compact(); !errors.Is(err, errCrash) {
			t.Fatalf("compact survived: %v", err)
		}
		must(t, s.Close())

		s2 := mustOpenKV(t, base, ly, crashOpts())
		if st := s2.recStats; st.StaleRescanned == 0 {
			t.Fatalf("expected a stale (rewritten) segment rescan, got %+v", st)
		}
		verifyLive(t, s2, crashKeys, crashLive)
		must(t, s2.Compact())
		verifyLive(t, s2, crashKeys, crashLive)
		must(t, s2.Close())
		verifyLive(t, mustOpenKV(t, base, ly, crashOpts()), crashKeys, crashLive)
	})
}
