package bench

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"blobseer/internal/transport"
	"blobseer/internal/version"
	"blobseer/internal/wire"
)

// RecoveryConfig parameterizes the recovery ablation: restart cost of a
// durable version manager after a long update history, with the
// unbounded single-history replay (PR 1's WAL) against the segmented
// log with snapshot/compaction. The claim under test is that compaction
// bounds both the on-disk log and the restart replay by the checkpoint
// interval, independent of how much history the manager has served.
type RecoveryConfig struct {
	// Updates is the number of assign+complete cycles logged before the
	// restart (default 5000, i.e. 10k logged events plus creates).
	Updates int
	// Writers drive the updates concurrently (default 4).
	Writers int
	// Blobs spreads the updates (default = Writers).
	Blobs int
	// CheckpointEvery is the compacted mode's checkpoint interval in
	// events (default 500).
	CheckpointEvery int
	// SegmentBytes is the WAL roll threshold (default 64 KB, small so
	// compaction has whole segments to delete at bench scale).
	SegmentBytes int64
	// WALDir holds the per-mode logs. Required.
	WALDir string
}

func (c *RecoveryConfig) fill() {
	if c.Updates <= 0 {
		c.Updates = 5000
	}
	if c.Writers <= 0 {
		c.Writers = 4
	}
	if c.Blobs <= 0 {
		c.Blobs = c.Writers
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 500
	}
	if c.SegmentBytes <= 0 {
		c.SegmentBytes = 64 << 10
	}
}

// RecoveryRow is one measured mode of the recovery ablation.
type RecoveryRow struct {
	Mode           string // "replay-all" or "compacted"
	EventsLogged   uint64
	SegmentsOnDisk int
	SnapshotLoaded bool
	EventsReplayed int
	RestartMillis  float64
	// CheckpointMillis is the wall time of one explicit Checkpoint() at
	// the end of the compacted run (zero for replay-all): a checkpoint
	// folds the sealed segments over the previous snapshot in the
	// background, so its cost is off the request path but not off the
	// ledger.
	CheckpointMillis float64
}

// RecoveryResult is the ablation outcome: raw rows plus the rendered table.
type RecoveryResult struct {
	Updates int
	Rows    []RecoveryRow
}

// Row returns the row for the named mode, or nil.
func (r *RecoveryResult) Row(mode string) *RecoveryRow {
	for i := range r.Rows {
		if r.Rows[i].Mode == mode {
			return &r.Rows[i]
		}
	}
	return nil
}

// Table renders the result.
func (r *RecoveryResult) Table() Table {
	tab := Table{
		Name:   fmt.Sprintf("recovery: restart cost after %d updates, WAL compaction on/off", r.Updates),
		Header: []string{"mode", "events logged", "segments on disk", "snapshot", "events replayed", "restart ms", "checkpoint ms"},
	}
	for _, row := range r.Rows {
		snap, ckpt := "-", "-"
		if row.SnapshotLoaded {
			snap = "loaded"
			ckpt = fmt.Sprintf("%.2f", row.CheckpointMillis)
		}
		tab.Rows = append(tab.Rows, []string{
			row.Mode,
			fmt.Sprintf("%d", row.EventsLogged),
			fmt.Sprintf("%d", row.SegmentsOnDisk),
			snap,
			fmt.Sprintf("%d", row.EventsReplayed),
			fmt.Sprintf("%.2f", row.RestartMillis),
			ckpt,
		})
	}
	return tab
}

// RunRecovery measures both restart modes.
func RunRecovery(cfg RecoveryConfig) (*RecoveryResult, error) {
	cfg.fill()
	res := &RecoveryResult{Updates: cfg.Updates}
	for _, mode := range []struct {
		name  string
		every int
	}{
		{"replay-all", 0},
		{"compacted", cfg.CheckpointEvery},
	} {
		row, err := runRecoveryMode(cfg, mode.name, mode.every)
		if err != nil {
			return nil, fmt.Errorf("recovery ablation %s: %w", mode.name, err)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func runRecoveryMode(cfg RecoveryConfig, name string, checkpointEvery int) (RecoveryRow, error) {
	mc := version.ManagerConfig{
		WALPath:         filepath.Join(cfg.WALDir, name, "vm.wal"),
		WALSegmentBytes: cfg.SegmentBytes,
		CheckpointEvery: checkpointEvery,
		// No fsync: the experiment isolates replay work, not commit cost.
	}
	net := transport.NewInproc()
	defer net.Close()
	ln, err := net.Listen("vm")
	if err != nil {
		return RecoveryRow{}, err
	}
	m, err := version.ServeManagerDurable(ln, mc)
	if err != nil {
		return RecoveryRow{}, err
	}
	ctx := context.Background()
	var checkpointMillis float64
	ids := make([]wire.BlobID, cfg.Blobs)
	for i := range ids {
		resp, err := m.Apply(ctx, &wire.CreateBlobReq{PageSize: 4096})
		if err != nil {
			m.Close()
			return RecoveryRow{}, err
		}
		ids[i] = resp.(*wire.CreateBlobResp).Blob
	}
	var wg sync.WaitGroup
	errs := make(chan error, cfg.Writers)
	per := cfg.Updates / cfg.Writers
	for w := 0; w < cfg.Writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := ids[w%cfg.Blobs]
			for i := 0; i < per; i++ {
				resp, err := m.Apply(ctx, &wire.AssignReq{Blob: id, Size: 4096, Append: true})
				if err != nil {
					errs <- err
					return
				}
				v := resp.(*wire.AssignResp).Version
				if _, err := m.Apply(ctx, &wire.CompleteReq{Blob: id, Version: v}); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		m.Close()
		return RecoveryRow{}, err
	}
	if checkpointEvery > 0 {
		// The claim is "replay bounded by the interval", which needs the
		// background checkpointer to have caught up with the traffic —
		// not just completed once: under CPU starvation (the full test
		// suite, race-instrumented CI) the loop can lag far behind the
		// writers. Wait until it has run at least once and then quiesced:
		// no new checkpoint for 100 ms, because on an oversubscribed host
		// a single pass (snapshot write, rename, segment deletes) can
		// outlast a shorter window and look like quiescence.
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
			m.Close()
			return RecoveryRow{}, fmt.Errorf("no checkpoint completed")
		}
		t0 := time.Now()
		if err := m.Checkpoint(); err != nil {
			m.Close()
			return RecoveryRow{}, err
		}
		checkpointMillis = float64(time.Since(t0).Nanoseconds()) / 1e6
	}
	appends, _ := m.WALStats()
	m.Close()

	ln2, err := net.Listen("vm2")
	if err != nil {
		return RecoveryRow{}, err
	}
	start := time.Now()
	m2, err := version.ServeManagerDurable(ln2, mc)
	if err != nil {
		return RecoveryRow{}, err
	}
	elapsed := time.Since(start)
	defer m2.Close()
	stats := m2.RecoveryStats()
	return RecoveryRow{
		Mode:           name,
		EventsLogged:   appends,
		SegmentsOnDisk: stats.SegmentsOnDisk,
		SnapshotLoaded: stats.SnapshotLoaded,
		EventsReplayed: stats.EventsReplayed,
		RestartMillis:  float64(elapsed.Nanoseconds()) / 1e6,

		CheckpointMillis: checkpointMillis,
	}, nil
}
