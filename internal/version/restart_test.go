package version

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"blobseer/internal/transport"
	"blobseer/internal/wire"
)

// restartRow is one mode of A7.
type restartRow struct {
	mode           string // "replay-all" or "compacted"
	eventsLogged   uint64
	segments       int
	snapshotLoaded bool
	eventsReplayed int
	restart        time.Duration
	// checkpoint is one explicit Checkpoint at the end of the compacted
	// run (zero for replay-all): it folds the sealed segments over the
	// previous snapshot in the background, off the request path but not
	// off the ledger.
	checkpoint time.Duration
}

func (r restartRow) String() string {
	return fmt.Sprintf("%s: %d events logged, %d segments on disk, snapshot loaded %v, %d events replayed, restart %v, checkpoint %v",
		r.mode, r.eventsLogged, r.segments, r.snapshotLoaded, r.eventsReplayed, r.restart, r.checkpoint)
}

// restartCost is A7: what restarting a durable version manager costs
// after a long update history, with no checkpoints (the restart folds
// every event) against automatic checkpoints. The claim is that
// checkpoints bound both the log on disk and the restart's fold by the
// interval, however long the history. Four writers drive assign+complete
// cycles on a blob each, without fsync: the run isolates replay, not
// commit cost. Times are wall clock.
func restartCost(dir string, paper bool) ([]restartRow, error) {
	updates, every, segBytes := 400, 50, int64(2<<10)
	if paper {
		updates, every, segBytes = 5000, 500, 64<<10
	}
	var rows []restartRow
	for _, mode := range []struct {
		name  string
		every int
	}{{"replay-all", 0}, {"compacted", every}} {
		row, err := restartOnce(ManagerConfig{
			WALPath:         filepath.Join(dir, mode.name, "vm.wal"),
			WALSegmentBytes: segBytes,
			CheckpointEvery: mode.every,
		}, updates)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", mode.name, err)
		}
		row.mode = mode.name
		rows = append(rows, row)
	}
	return rows, nil
}

func restartOnce(cfg ManagerConfig, updates int) (restartRow, error) {
	const writers = 4
	net := transport.NewInproc()
	defer net.Close()
	ln, err := net.Listen("vm")
	if err != nil {
		return restartRow{}, err
	}
	m, err := ServeManagerDurable(ln, cfg)
	if err != nil {
		return restartRow{}, err
	}
	defer m.Close()
	ctx := context.Background()
	ids := make([]wire.BlobID, writers)
	for i := range ids {
		resp, err := m.Apply(ctx, &wire.CreateBlobReq{PageSize: 4096})
		if err != nil {
			return restartRow{}, err
		}
		ids[i] = resp.(*wire.CreateBlobResp).Blob
	}
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for _, id := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range updates / writers {
				resp, err := m.Apply(ctx, &wire.AssignReq{Blob: id, Size: 4096, Append: true})
				if err != nil {
					errs <- err
					return
				}
				if _, err := m.Apply(ctx, &wire.CompleteReq{Blob: id, Version: resp.(*wire.AssignResp).Version}); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return restartRow{}, err
	}
	var row restartRow
	if cfg.CheckpointEvery > 0 {
		// The claim is "replay bounded by the interval", which needs the
		// background checkpointer to have caught up with the traffic, not
		// just to have completed once: on a starved host (the whole suite,
		// the race detector) it can lag far behind the writers. Wait until
		// it has run and then quiesced for 100 ms, because there a single
		// pass (snapshot write, rename, segment deletes) can outlast a
		// shorter window.
		deadline := time.Now().Add(10 * time.Second)
		var last uint64
		for stable := 0; stable < 20 && time.Now().Before(deadline); {
			n := m.Checkpoints()
			if n > 0 && n == last {
				stable++
			} else {
				stable = 0
			}
			last = n
			time.Sleep(5 * time.Millisecond)
		}
		if m.Checkpoints() == 0 {
			return restartRow{}, fmt.Errorf("no checkpoint completed")
		}
		t0 := time.Now()
		if err := m.Checkpoint(); err != nil {
			return restartRow{}, err
		}
		row.checkpoint = time.Since(t0)
	}
	row.eventsLogged = m.log.appends.Load()
	m.Close()

	ln2, err := net.Listen("vm2")
	if err != nil {
		return restartRow{}, err
	}
	start := time.Now()
	m2, err := ServeManagerDurable(ln2, cfg)
	if err != nil {
		return restartRow{}, err
	}
	row.restart = time.Since(start)
	defer m2.Close()
	stats := m2.log.recovery
	row.segments, row.snapshotLoaded, row.eventsReplayed = stats.SegmentsOnDisk, stats.SnapshotLoaded, stats.EventsReplayed
	return row, nil
}

// TestRunRecoverySmall holds A7 at its pinned size: with checkpoints, the
// restart loads a snapshot and replays a bounded tail; without them,
// every logged event replays and the segments pile up.
func TestRunRecoverySmall(t *testing.T) {
	rows, err := restartCost(t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	replayAll, compacted := rows[0], rows[1]
	for _, r := range rows {
		t.Log(r)
	}
	if replayAll.snapshotLoaded || int(replayAll.eventsLogged) != replayAll.eventsReplayed {
		t.Fatalf("replay-all must replay every event: %v", replayAll)
	}
	if !compacted.snapshotLoaded {
		t.Fatalf("compacted mode never loaded a snapshot: %v", compacted)
	}
	if compacted.eventsReplayed >= replayAll.eventsReplayed/2 {
		t.Fatalf("compaction did not bound replay: %d vs %d events", compacted.eventsReplayed, replayAll.eventsReplayed)
	}
	if compacted.segments >= replayAll.segments {
		t.Fatalf("compaction did not bound segments: %d vs %d", compacted.segments, replayAll.segments)
	}
	if compacted.checkpoint <= 0 || replayAll.checkpoint != 0 {
		t.Fatalf("checkpoint wall time: compacted %v, replay-all %v; want measured and zero", compacted.checkpoint, replayAll.checkpoint)
	}
}

// BenchmarkManagerRestart runs A7 at its pinned size (400 updates, a
// checkpoint every 50 events, 2 KB segments) and at the size of the
// README's figures (5 000 updates, every 500, 64 KB segments).
func BenchmarkManagerRestart(b *testing.B) {
	for _, size := range []string{"pinned", "paper"} {
		b.Run(size, func(b *testing.B) {
			for i := range b.N {
				rows, err := restartCost(b.TempDir(), size == "paper")
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.Log(fmt.Sprintf("%v\n%v", rows[0], rows[1]))
				}
				for _, r := range rows {
					b.ReportMetric(float64(r.restart.Microseconds())/1e3, r.mode+"-restart-ms")
					b.ReportMetric(float64(r.eventsReplayed), r.mode+"-events-replayed")
				}
				b.ReportMetric(float64(rows[1].checkpoint.Microseconds())/1e3, "checkpoint-ms")
			}
		})
	}
}
