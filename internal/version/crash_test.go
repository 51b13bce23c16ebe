package version

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"blobseer/internal/seglog"
	"blobseer/internal/wire"
)

// errInjected is the simulated crash: the checkpoint aborts exactly as a
// process death at that point would, and the test then restarts on
// whatever the disk holds.
var errInjected = errors.New("injected crash")

// crashWorkload drives a deterministic history with every feature the
// snapshot must carry: published versions, an abort, a branch with its
// own publication, a completed-but-unpublished update, and plain
// in-flight updates. Blob ids are deterministic (1, 2, 3), so two
// managers fed this workload are logically identical.
func crashWorkload(t *testing.T, m *Manager) {
	t.Helper()
	b1 := apply(t, m, &wire.CreateBlobReq{PageSize: 1024}).(*wire.CreateBlobResp).Blob
	b2 := apply(t, m, &wire.CreateBlobReq{PageSize: 4096}).(*wire.CreateBlobResp).Blob
	for i := 0; i < 10; i++ {
		a := apply(t, m, &wire.AssignReq{Blob: b1, Size: uint64(100 + i), Append: true}).(*wire.AssignResp)
		apply(t, m, &wire.CompleteReq{Blob: b1, Version: a.Version})
	}
	a := apply(t, m, &wire.AssignReq{Blob: b1, Size: 64, Append: true}).(*wire.AssignResp)
	apply(t, m, &wire.AbortReq{Blob: b1, Version: a.Version})
	apply(t, m, &wire.AssignReq{Blob: b1, Size: 32, Append: true}) // in flight at the cut
	b3 := apply(t, m, &wire.BranchReq{Blob: b1, Version: 5}).(*wire.BranchResp).NewBlob
	fa := apply(t, m, &wire.AssignReq{Blob: b3, Size: 500, Append: true}).(*wire.AssignResp)
	apply(t, m, &wire.CompleteReq{Blob: b3, Version: fa.Version})
	// b2: v1 in flight, v2 completed but unpublished behind it.
	apply(t, m, &wire.AssignReq{Blob: b2, Size: 10, Append: true})
	a2 := apply(t, m, &wire.AssignReq{Blob: b2, Size: 20, Append: true}).(*wire.AssignResp)
	apply(t, m, &wire.CompleteReq{Blob: b2, Version: a2.Version})
}

// fingerprint canonically serializes a quiesced manager's entire version
// state (log position excluded; assignedAt is never encoded). Two
// managers with identical logical state fingerprint byte-identically —
// the equality the crash-injection table asserts.
func fingerprint(m *Manager) []byte {
	s := &snapshotState{nextBlob: wire.BlobID(m.nextBlob.Load())}
	for _, sh := range m.allShards() {
		s.blobs = append(s.blobs, sh.state.clone())
	}
	return encodeSnapshot(s)
}

// crashCfg builds a manager config with segments small enough that the
// workload spans many of them (so compaction has real work to crash in).
func crashCfg(dir string) ManagerConfig {
	return ManagerConfig{
		WALPath:         filepath.Join(dir, "vm.wal"),
		WALSync:         true,
		WALSegmentBytes: 64, // roughly one event per segment
	}
}

// TestCheckpointCrashInjection kills the checkpointer at every fault
// point — plus torn-file variants a hook cannot express — and asserts
// the recovered state is byte-identical to a manager that never crashed.
func TestCheckpointCrashInjection(t *testing.T) {
	controlDir := t.TempDir()
	control, stopControl := startDurable(t, crashCfg(controlDir))
	crashWorkload(t, control)
	want := fingerprint(control)
	stopControl()
	// The control must itself survive a clean restart unchanged, or the
	// comparisons below prove nothing.
	control2, stopControl2 := startDurable(t, crashCfg(controlDir))
	if got := fingerprint(control2); !bytes.Equal(got, want) {
		t.Fatal("control manager state changed across a clean restart")
	}
	stopControl2()

	// tamper runs after the injected crash (or clean close), mangling
	// on-disk files the way a torn write would.
	type tamper func(t *testing.T, base string)
	cases := []struct {
		name   string
		point  string // "" = no checkpoint hook crash
		tamper tamper
	}{
		{name: "begin", point: crashBegin},
		{name: "captured", point: crashCaptured},
		{name: "tmp-written", point: crashTmpWritten},
		{name: "renamed", point: crashRenamed},
		{name: "segment-deleted", point: crashSegmentDeleted},
		{name: "torn-tmp", point: crashTmpWritten, tamper: func(t *testing.T, base string) {
			truncateTail(t, seglog.SnapshotTmpPath(base), 9)
		}},
		{name: "torn-snapshot", point: crashRenamed, tamper: func(t *testing.T, base string) {
			// Segments are all still present (the crash preceded deletion),
			// so recovery must fall back to full replay.
			truncateTail(t, seglog.SnapshotPath(base), 9)
		}},
		{name: "corrupt-snapshot-crc", point: crashRenamed, tamper: func(t *testing.T, base string) {
			flipByte(t, seglog.SnapshotPath(base), walHeaderSize+3)
		}},
		{name: "torn-segment-tail", point: "", tamper: func(t *testing.T, base string) {
			// A crash mid-append of a record that never applied: a valid
			// header claiming more payload than follows.
			var hdr [walHeaderSize]byte
			binary.LittleEndian.PutUint32(hdr[0:4], walMagic)
			binary.LittleEndian.PutUint32(hdr[4:8], 64)
			binary.LittleEndian.PutUint32(hdr[8:12], 0xBAD)
			appendBytes(t, newestSegment(t, base), hdr[:])
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := crashCfg(dir)
			m, stop := startDurable(t, cfg)
			crashWorkload(t, m)
			if tc.point != "" {
				fired := false
				m.cfg.Fault = func(p string) error {
					if p == tc.point {
						fired = true
						return errInjected
					}
					return nil
				}
				if err := m.Checkpoint(); !errors.Is(err, errInjected) {
					t.Fatalf("checkpoint survived the injected crash: %v", err)
				}
				if !fired {
					t.Fatalf("fault point %q never reached", tc.point)
				}
			}
			stop() // process death: nothing else runs
			if tc.tamper != nil {
				tc.tamper(t, cfg.WALPath)
			}
			m2, stop2 := startDurable(t, cfg)
			defer stop2()
			if got := fingerprint(m2); !bytes.Equal(got, want) {
				t.Fatalf("recovered state differs from the uncrashed manager\n got: %x\nwant: %x", got, want)
			}
			// The recovered manager still serves: the in-flight update on
			// blob 2 completes and both queued versions publish.
			apply(t, m2, &wire.CompleteReq{Blob: 2, Version: 1})
			rec := apply(t, m2, &wire.RecentReq{Blob: 2}).(*wire.RecentResp)
			if rec.Version != 2 || rec.Size != 30 {
				t.Fatalf("recovered manager publication: %+v", rec)
			}
		})
	}
}

// TestEveryCrashPointIsExercised keeps the fault-point table honest: a
// checkpoint with work to do must pass through every declared point.
func TestEveryCrashPointIsExercised(t *testing.T) {
	m, stop := startDurable(t, crashCfg(t.TempDir()))
	defer stop()
	crashWorkload(t, m)
	seen := make(map[string]bool)
	m.cfg.Fault = func(p string) error {
		seen[p] = true
		return nil
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for _, p := range crashPoints {
		if !seen[p] {
			t.Errorf("checkpoint never reached fault point %q", p)
		}
	}
}

// TestCheckpointUnderConcurrentTraffic checkpoints (automatically and on
// demand) while writers hammer the manager, then restarts and compares
// fingerprints — the consistent-cut invariant under -race.
func TestCheckpointUnderConcurrentTraffic(t *testing.T) {
	dir := t.TempDir()
	cfg := ManagerConfig{
		WALPath:         filepath.Join(dir, "vm.wal"),
		WALSync:         true,
		WALSegmentBytes: 512,
		CheckpointEvery: 25,
	}
	m, stop := startDurable(t, cfg)
	const blobs = 4
	ids := make([]wire.BlobID, blobs)
	for i := range ids {
		ids[i] = apply(t, m, &wire.CreateBlobReq{PageSize: 4096}).(*wire.CreateBlobResp).Blob
	}
	var wg sync.WaitGroup
	for wk := 0; wk < 8; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			id := ids[wk%blobs]
			for i := 0; i < 40; i++ {
				resp, err := m.Apply(t.Context(), &wire.AssignReq{Blob: id, Size: 64, Append: true})
				if err != nil {
					t.Errorf("assign: %v", err)
					return
				}
				if _, err := m.Apply(t.Context(), &wire.CompleteReq{Blob: id, Version: resp.(*wire.AssignResp).Version}); err != nil {
					t.Errorf("complete: %v", err)
					return
				}
			}
		}(wk)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if err := m.Checkpoint(); err != nil {
				t.Errorf("on-demand checkpoint: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	want := fingerprint(m)
	stop()
	m2, stop2 := startDurable(t, cfg)
	defer stop2()
	if got := fingerprint(m2); !bytes.Equal(got, want) {
		t.Fatal("state diverged across checkpointed restart under concurrency")
	}
}

func truncateTail(t *testing.T, path string, n int64) {
	t.Helper()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-n); err != nil {
		t.Fatal(err)
	}
}

func flipByte(t *testing.T, path string, off int64) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[off] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

func appendBytes(t *testing.T, path string, p []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(p); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func newestSegment(t *testing.T, base string) string {
	t.Helper()
	segs, err := listSegments(base)
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments at %s: %v", base, err)
	}
	return seglog.SegmentPath(base, segs[len(segs)-1])
}
