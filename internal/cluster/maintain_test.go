package cluster

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"blobseer/internal/client"
	"blobseer/internal/dht"
	"blobseer/internal/obs"
	"blobseer/internal/pagestore"
	"blobseer/internal/simnet"
	"blobseer/internal/vclock"
)

// TestSimMaintenanceRepeats: on a durable simulated cluster with every
// store's maintenance on — index snapshots and compaction in the page
// and metadata logs, checkpoints in the version WAL — a workload of
// overwrites, expiry, garbage collection and restarts leaves the same
// store_* and version_* series every time it runs. Maintenance passes
// run on the cluster's scheduler, so they take their turn of the baton
// like every other goroutine, and a rerun replays them.
func TestSimMaintenanceRepeats(t *testing.T) {
	const runs = 5
	var first string
	for run := 0; run < runs; run++ {
		got, err := maintainedRun(t.TempDir())
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if run == 0 {
			first = got
			continue
		}
		if got != first {
			t.Fatalf("run %d's store and version series differ from run 0's:\n%s", run, seriesDiff(first, got))
		}
	}
	if n := strings.Count(first, "\n"); n < 40 {
		t.Fatalf("only %d store and version series:\n%s", n, first)
	}
}

// maintainedRun drives TestSimMaintenanceRepeats's workload on a fresh
// cluster under dir and returns the store_* and version_* series it
// ends with.
func maintainedRun(dir string) (string, error) {
	const (
		pageSize = 1 << 10
		blobSize = 4 << 10
		rounds   = 30
	)
	clock := vclock.NewVirtual(0)
	net := simnet.New(clock, simnet.Config{})
	var series string
	var err error
	simErr := clock.Run(func() {
		logs := dht.LogOptions{SegmentBytes: 6 << 10, SnapshotEvery: 4, CompactRatio: 0.5}
		var cl *Cluster
		if cl, err = StartSim(net, clock, Config{
			DataProviders:          2,
			MetaProviders:          2,
			PageDir:                filepath.Join(dir, "pages"),
			PageStore:              pagestore.DiskOptions(logs),
			MetaLogDir:             filepath.Join(dir, "meta"),
			MetaLog:                logs,
			VersionWALPath:         filepath.Join(dir, "vm", "wal"),
			VersionWALSegmentBytes: 512,
			VersionCheckpointEvery: 4,
			RetainVersions:         1,
		}); err != nil {
			return
		}
		defer cl.Close()
		ctx := context.Background()
		var c *client.Client
		if c, err = cl.NewClient("client0"); err != nil {
			return
		}
		id, cerr := c.Create(ctx, pageSize)
		if err = cerr; err != nil {
			return
		}
		data := make([]byte, blobSize)
		for round := 1; round <= rounds; round++ {
			if round == rounds/2 {
				// The restarted services' connections are gone: go on with a
				// client that dials afresh.
				c.Close()
				for _, svc := range []struct {
					role string
					i    int
				}{{roleVM, 0}, {roleMeta, 1}, {roleData, 0}} {
					if err = cl.Restart(svc.role, svc.i); err != nil {
						return
					}
				}
				if c, err = cl.NewClient("client0"); err != nil {
					return
				}
			}
			for i := range data {
				data[i] = byte(round*7 + i)
			}
			v, werr := c.Write(ctx, id, data, 0)
			if werr != nil {
				err = fmt.Errorf("round %d write: %w", round, werr)
				return
			}
			if err = c.Sync(ctx, id, v); err != nil {
				return
			}
			if round%5 == 0 {
				if _, _, err = c.ExpireVersions(ctx, id, v-1); err != nil {
					return
				}
				if _, err = c.CollectGarbage(ctx, id); err != nil {
					return
				}
			}
		}
		c.Close()
		for _, name := range []string{"store_snapshots_total", "store_compactions_total", "version_checkpoints_total"} {
			if obs.Value(cl, name) == 0 {
				err = fmt.Errorf("no maintenance pass moved %s", name)
				return
			}
		}
		var sink obs.Sink
		cl.Metrics(&sink)
		var text strings.Builder
		sink.WriteTo(&text)
		var kept strings.Builder
		for _, line := range strings.Split(text.String(), "\n") {
			if strings.HasPrefix(line, "store_") || strings.HasPrefix(line, "version_") {
				kept.WriteString(line + "\n")
			}
		}
		series = kept.String()
	})
	if simErr != nil {
		return "", fmt.Errorf("simulation: %w", simErr)
	}
	return series, err
}

// seriesDiff pairs the lines of a and b that differ, position by
// position, for a failure message that names what moved.
func seriesDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	var out strings.Builder
	for i := range max(len(al), len(bl)) {
		var x, y string
		if i < len(al) {
			x = al[i]
		}
		if i < len(bl) {
			y = bl[i]
		}
		if x != y {
			fmt.Fprintf(&out, "- %s\n+ %s\n", x, y)
		}
	}
	return out.String()
}
