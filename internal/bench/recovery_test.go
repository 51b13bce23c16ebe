package bench

import "testing"

// TestRunRecoverySmall is the acceptance check for the recovery
// ablation at a size fit for CI: with compaction, the restart loads a
// snapshot and replays a bounded tail; without it, every logged event
// replays and the segments pile up.
func TestRunRecoverySmall(t *testing.T) {
	res, err := RunRecovery(RecoveryConfig{
		Updates:         400,
		Writers:         4,
		CheckpointEvery: 50,
		SegmentBytes:    2 << 10,
		WALDir:          t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	replayAll := res.Row("replay-all")
	compacted := res.Row("compacted")
	if replayAll == nil || compacted == nil {
		t.Fatalf("missing modes: %+v", res.Rows)
	}
	if replayAll.SnapshotLoaded || int(replayAll.EventsLogged) != replayAll.EventsReplayed {
		t.Fatalf("replay-all must replay every event: %+v", replayAll)
	}
	if !compacted.SnapshotLoaded {
		t.Fatalf("compacted mode never loaded a snapshot: %+v", compacted)
	}
	if compacted.EventsReplayed >= replayAll.EventsReplayed/2 {
		t.Fatalf("compaction did not bound replay: %d vs %d events",
			compacted.EventsReplayed, replayAll.EventsReplayed)
	}
	if compacted.SegmentsOnDisk >= replayAll.SegmentsOnDisk {
		t.Fatalf("compaction did not bound segments: %d vs %d",
			compacted.SegmentsOnDisk, replayAll.SegmentsOnDisk)
	}
	if compacted.CheckpointMillis <= 0 || replayAll.CheckpointMillis != 0 {
		t.Fatalf("checkpoint wall time: compacted %.3f ms, replay-all %.3f ms; want measured and zero",
			compacted.CheckpointMillis, replayAll.CheckpointMillis)
	}
	res.Table().Fprint(testWriter{t})
}

// testWriter adapts t.Logf for table rendering.
type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", p)
	return len(p), nil
}
