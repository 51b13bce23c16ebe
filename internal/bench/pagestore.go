package bench

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"blobseer/internal/pagestore"
	"blobseer/internal/wire"
)

// PageStoreConfig parameterizes the A8 ablation: the provider page
// store's data path, measured directly against the engine (no RPC, no
// metadata layer) so the numbers isolate the store's locking, logging
// and maintenance. Three claims are under test, mirroring what PRs on
// the version manager proved for the metadata path:
//
//   - group commit: concurrent PUT_PAGE writers sharing fsyncs must
//     beat one-fsync-per-put aggregate throughput;
//   - bounded reopen: recovery from index snapshot + tail replay must
//     beat rescanning every page body on a large store;
//   - compaction: a churn-heavy store (most pages deleted as garbage
//     collection reclaims superseded versions) must shrink on disk
//     while every retained page survives byte-identical.
type PageStoreConfig struct {
	// Dir holds the per-experiment stores. Required.
	Dir string
	// Writers is the number of concurrent putters (default 8).
	Writers int
	// PutsPerWriter is the number of pages each writer stores in the
	// throughput experiment (default 400).
	PutsPerWriter int
	// PageBytes is the page size used throughout (default 4096).
	PageBytes int
	// ReopenPages is the store size for the reopen experiment
	// (default 12000, comfortably past the 10k-page claim).
	ReopenPages int
	// ChurnPages is the page count for the compaction experiment
	// (default 6000).
	ChurnPages int
	// ChurnKeepEvery retains one page in this many during churn
	// (default 4: 75% of pages become garbage).
	ChurnKeepEvery int
	// SegmentBytes is the roll threshold (default 256 KB, small so the
	// experiments span many segments at bench scale).
	SegmentBytes int64
}

func (c *PageStoreConfig) fill() {
	if c.Writers <= 0 {
		c.Writers = 8
	}
	if c.PutsPerWriter <= 0 {
		c.PutsPerWriter = 400
	}
	if c.PageBytes <= 0 {
		c.PageBytes = 4096
	}
	if c.ReopenPages <= 0 {
		c.ReopenPages = 12000
	}
	if c.ChurnPages <= 0 {
		c.ChurnPages = 6000
	}
	if c.ChurnKeepEvery <= 1 {
		c.ChurnKeepEvery = 4
	}
	if c.SegmentBytes <= 0 {
		c.SegmentBytes = 256 << 10
	}
}

// PSPutRow is one measured fsync mode of the put-throughput experiment.
type PSPutRow struct {
	Mode         string // "fsync-serial" or "fsync+group"
	Writers      int
	PutsPerSec   float64
	FsyncsPerPut float64
}

// PSReopenRow is one measured recovery mode of the reopen experiment.
type PSReopenRow struct {
	Mode            string // "rescan" or "snapshot+tail"
	Pages           int
	RecordsReplayed int
	ReopenMillis    float64
}

// PSCompactRow is the compaction experiment outcome.
type PSCompactRow struct {
	PagesBefore    int
	LivePages      int
	LogBytesBefore int64
	LogBytesAfter  int64
	// CompactMillis is how long the Compact call took and AllocBytes what
	// the process allocated during it (runtime TotalAlloc; nothing else
	// runs meanwhile): what the rewrites cost, against the LogBytesAfter
	// they kept.
	CompactMillis float64
	AllocBytes    uint64
	// Verified is true when every retained page read back byte-identical
	// (and every deleted page stayed gone) after compaction AND after a
	// subsequent reopen.
	Verified bool
}

// PageStoreResult is the A8 outcome: raw rows plus rendered tables.
type PageStoreResult struct {
	Writers int
	Put     []PSPutRow
	Reopen  []PSReopenRow
	Compact PSCompactRow
}

// PutRow returns the named put mode's row, or nil.
func (r *PageStoreResult) PutRow(mode string) *PSPutRow {
	for i := range r.Put {
		if r.Put[i].Mode == mode {
			return &r.Put[i]
		}
	}
	return nil
}

// ReopenRow returns the named recovery mode's row, or nil.
func (r *PageStoreResult) ReopenRow(mode string) *PSReopenRow {
	for i := range r.Reopen {
		if r.Reopen[i].Mode == mode {
			return &r.Reopen[i]
		}
	}
	return nil
}

// Tables renders the result.
func (r *PageStoreResult) Tables() []Table {
	put := Table{
		Name:   fmt.Sprintf("A8a: page-store put throughput (%d writers, fsync per batch vs per put)", r.Writers),
		Header: []string{"mode", "puts/s", "fsyncs/put", "vs serial"},
	}
	var serial float64
	for _, row := range r.Put {
		if row.Mode == "fsync-serial" {
			serial = row.PutsPerSec
		}
	}
	for _, row := range r.Put {
		speedup := "-"
		if serial > 0 && row.Mode != "fsync-serial" {
			speedup = fmt.Sprintf("%.2fx", row.PutsPerSec/serial)
		}
		put.Rows = append(put.Rows, []string{
			row.Mode,
			fmt.Sprintf("%.0f", row.PutsPerSec),
			fmt.Sprintf("%.3f", row.FsyncsPerPut),
			speedup,
		})
	}
	reopen := Table{
		Name:   "A8b: reopen latency, full rescan vs index snapshot + tail replay",
		Header: []string{"mode", "pages", "records replayed", "reopen ms (fastest of 5)"},
	}
	for _, row := range r.Reopen {
		reopen.Rows = append(reopen.Rows, []string{
			row.Mode,
			fmt.Sprintf("%d", row.Pages),
			fmt.Sprintf("%d", row.RecordsReplayed),
			fmt.Sprintf("%.2f", row.ReopenMillis),
		})
	}
	compact := Table{
		Name: "A8c: compaction of a churn-heavy store (deleted pages reclaimed, retained pages intact)",
		Header: []string{"pages before", "live pages", "log bytes before", "log bytes after", "shrink",
			"rewrite MB/s", "heap bytes allocated per byte kept", "verified"},
	}
	shrink, rate, heap := "-", "-", "-"
	if r.Compact.LogBytesBefore > 0 {
		shrink = fmt.Sprintf("%.1f%%", 100*(1-float64(r.Compact.LogBytesAfter)/float64(r.Compact.LogBytesBefore)))
	}
	if r.Compact.CompactMillis > 0 && r.Compact.LogBytesAfter > 0 {
		rate = fmt.Sprintf("%.1f", float64(r.Compact.LogBytesAfter)/1e3/r.Compact.CompactMillis)
		heap = fmt.Sprintf("%.3f", float64(r.Compact.AllocBytes)/float64(r.Compact.LogBytesAfter))
	}
	verified := "NO"
	if r.Compact.Verified {
		verified = "yes"
	}
	compact.Rows = append(compact.Rows, []string{
		fmt.Sprintf("%d", r.Compact.PagesBefore),
		fmt.Sprintf("%d", r.Compact.LivePages),
		fmt.Sprintf("%d", r.Compact.LogBytesBefore),
		fmt.Sprintf("%d", r.Compact.LogBytesAfter),
		shrink,
		rate,
		heap,
		verified,
	})
	return []Table{put, reopen, compact}
}

// benchPageID builds a deterministic page id from an experiment tag and
// an index, so modes never collide and reruns are reproducible.
func benchPageID(tag byte, n int) wire.PageID {
	var id wire.PageID
	id[0] = tag
	binary.LittleEndian.PutUint64(id[1:9], uint64(n)*0x9E3779B97F4A7C15)
	binary.LittleEndian.PutUint64(id[8:16], uint64(n))
	return id
}

// benchPageData fills a deterministic page body.
func benchPageData(n, size int) []byte {
	data := make([]byte, size)
	binary.LittleEndian.PutUint64(data, uint64(n))
	for i := 8; i < size; i++ {
		data[i] = byte(n + i)
	}
	return data
}

// RunPageStore measures every leg of the A8 ablation.
func RunPageStore(cfg PageStoreConfig) (*PageStoreResult, error) {
	cfg.fill()
	res := &PageStoreResult{Writers: cfg.Writers}

	for _, mode := range []struct {
		name  string
		group bool
		tag   byte
	}{
		{"fsync-serial", false, 1},
		{"fsync+group", true, 2},
	} {
		row, err := runPageStorePuts(cfg, mode.name, mode.group, mode.tag)
		if err != nil {
			return nil, fmt.Errorf("pagestore ablation %s: %w", mode.name, err)
		}
		res.Put = append(res.Put, row)
	}

	reopen, err := runPageStoreReopen(cfg)
	if err != nil {
		return nil, fmt.Errorf("pagestore ablation reopen: %w", err)
	}
	res.Reopen = reopen

	compact, err := runPageStoreCompaction(cfg)
	if err != nil {
		return nil, fmt.Errorf("pagestore ablation compaction: %w", err)
	}
	res.Compact = compact
	return res, nil
}

func runPageStorePuts(cfg PageStoreConfig, name string, group bool, tag byte) (PSPutRow, error) {
	d, err := pagestore.OpenDisk(filepath.Join(cfg.Dir, name, "pages.log"), pagestore.DiskOptions{
		Sync:         true,
		GroupCommit:  group,
		SegmentBytes: cfg.SegmentBytes,
	})
	if err != nil {
		return PSPutRow{}, err
	}
	defer d.Close()
	data := benchPageData(int(tag), cfg.PageBytes)
	var wg sync.WaitGroup
	errs := make(chan error, cfg.Writers)
	start := time.Now()
	for w := 0; w < cfg.Writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < cfg.PutsPerWriter; i++ {
				if err := d.Put(benchPageID(tag, w*cfg.PutsPerWriter+i), data); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errs)
	for err := range errs {
		return PSPutRow{}, err
	}
	puts := float64(cfg.Writers * cfg.PutsPerWriter)
	appends, syncs := d.WriteStats()
	row := PSPutRow{
		Mode:       name,
		Writers:    cfg.Writers,
		PutsPerSec: puts / elapsed.Seconds(),
	}
	if appends > 0 {
		row.FsyncsPerPut = float64(syncs) / float64(appends)
	}
	return row, nil
}

func runPageStoreReopen(cfg PageStoreConfig) ([]PSReopenRow, error) {
	path := filepath.Join(cfg.Dir, "reopen", "pages.log")
	opts := pagestore.DiskOptions{GroupCommit: true, SegmentBytes: cfg.SegmentBytes}
	d, err := pagestore.OpenDisk(path, opts)
	if err != nil {
		return nil, err
	}
	data := benchPageData(3, cfg.PageBytes)
	for i := 0; i < cfg.ReopenPages; i++ {
		if err := d.Put(benchPageID(3, i), data); err != nil {
			d.Close()
			return nil, err
		}
	}
	if err := d.Close(); err != nil {
		return nil, err
	}

	// An open here takes a millisecond or two — less than one collector
	// pause — so each mode is opened reopenRuns times and its fastest open
	// is the one reported.
	const reopenRuns = 5
	var rows []PSReopenRow
	measure := func(mode string) error {
		row := PSReopenRow{Mode: mode, Pages: cfg.ReopenPages}
		for run := 1; run <= reopenRuns; run++ {
			start := time.Now()
			d, err := pagestore.OpenDisk(path, opts)
			if err != nil {
				return err
			}
			ms := float64(time.Since(start).Nanoseconds()) / 1e6
			if run == 1 || ms < row.ReopenMillis {
				row.ReopenMillis = ms
			}
			row.RecordsReplayed = max(row.RecordsReplayed, d.RecoveryStats().RecordsReplayed)
			if pages, _ := d.Stats(); int(pages) != cfg.ReopenPages {
				d.Close()
				return fmt.Errorf("%s recovered %d pages, want %d", mode, pages, cfg.ReopenPages)
			}
			if mode == "rescan" && run == reopenRuns {
				// Leave a snapshot behind for the second measurement.
				if err := d.Snapshot(); err != nil {
					d.Close()
					return err
				}
			}
			if err := d.Close(); err != nil {
				return err
			}
		}
		rows = append(rows, row)
		return nil
	}
	if err := measure("rescan"); err != nil {
		return nil, err
	}
	if err := measure("snapshot+tail"); err != nil {
		return nil, err
	}
	return rows, nil
}

func runPageStoreCompaction(cfg PageStoreConfig) (PSCompactRow, error) {
	path := filepath.Join(cfg.Dir, "churn", "pages.log")
	opts := pagestore.DiskOptions{GroupCommit: true, SegmentBytes: cfg.SegmentBytes}
	d, err := pagestore.OpenDisk(path, opts)
	if err != nil {
		return PSCompactRow{}, err
	}
	for i := 0; i < cfg.ChurnPages; i++ {
		if err := d.Put(benchPageID(4, i), benchPageData(i, cfg.PageBytes)); err != nil {
			d.Close()
			return PSCompactRow{}, err
		}
	}
	// Churn: the garbage collector reclaims pages of superseded
	// versions; one in ChurnKeepEvery stays reachable from a retained
	// version and must survive untouched.
	for i := 0; i < cfg.ChurnPages; i++ {
		if i%cfg.ChurnKeepEvery != 0 {
			if err := d.Delete(benchPageID(4, i)); err != nil {
				d.Close()
				return PSCompactRow{}, err
			}
		}
	}
	row := PSCompactRow{
		PagesBefore:    cfg.ChurnPages,
		LogBytesBefore: d.LogBytes(),
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	if err := d.Compact(); err != nil {
		d.Close()
		return PSCompactRow{}, err
	}
	row.CompactMillis = float64(time.Since(start).Nanoseconds()) / 1e6
	runtime.ReadMemStats(&after)
	row.AllocBytes = after.TotalAlloc - before.TotalAlloc
	row.LogBytesAfter = d.LogBytes()

	verify := func(d *pagestore.Disk) error {
		live := 0
		for i := 0; i < cfg.ChurnPages; i++ {
			id := benchPageID(4, i)
			if i%cfg.ChurnKeepEvery == 0 {
				got, err := d.Get(id, 0, wire.WholePage)
				if err != nil {
					return fmt.Errorf("retained page %d: %w", i, err)
				}
				if !bytes.Equal(got, benchPageData(i, cfg.PageBytes)) {
					return fmt.Errorf("retained page %d not byte-identical", i)
				}
				live++
			} else if d.Has(id) {
				return fmt.Errorf("deleted page %d still present", i)
			}
		}
		row.LivePages = live
		return nil
	}
	if err := verify(d); err != nil {
		d.Close()
		return row, err
	}
	if err := d.Close(); err != nil {
		return row, err
	}
	d2, err := pagestore.OpenDisk(path, opts)
	if err != nil {
		return row, err
	}
	defer d2.Close()
	if err := verify(d2); err != nil {
		return row, err
	}
	row.Verified = true
	return row, nil
}
