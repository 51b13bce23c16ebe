package main

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"blobseer/internal/cluster"
	"blobseer/internal/dht"
	"blobseer/internal/obs"
	"blobseer/internal/pagestore"
	"blobseer/internal/vclock"
	"blobseer/internal/wire"
)

// Every series each service writes, by role, as a scrape names its
// families.
var (
	rpcSeries   = []string{"rpc_handler_seconds", "rpc_encode_failures_total"}
	storeSeries = []string{
		"store_keys", "store_value_bytes", "store_appends_total", "store_syncs_total", "store_log_bytes", "store_reclaimable_bytes", "store_compactions_total", "store_unsnapshotted_records",
		"store_snapshots_total", "store_maintenance_failures_total", "store_recovery_snapshot_loaded",
		"store_recovery_snapshot_entries", "store_recovery_segments", "store_recovery_segments_rescanned",
		"store_recovery_stale_rescanned", "store_recovery_records_replayed",
	}
	roleSeries = map[string][]string{
		"version-manager": append(slices.Clone(rpcSeries),
			"version_updates_in_flight", "version_dead_writer_aborts_total",
			"version_checkpoints_total", "version_checkpoint_failures_total",
			"version_wal_appends_total", "version_wal_syncs_total", "version_wal_uncheckpointed_events",
			"version_recovery_snapshot_loaded", "version_recovery_snapshot_blobs", "version_recovery_segments",
			"version_recovery_stale_removed", "version_recovery_events_replayed"),
		"provider-manager": append(slices.Clone(rpcSeries), "provider_manager_live_providers"),
		"data":             append(slices.Clone(rpcSeries), storeSeries...),
		"metadata":         append(slices.Clone(rpcSeries), storeSeries...),
		"client": {
			"client_page_cache_hits_total", "client_page_cache_misses_total", "client_single_flight_shares_total",
			"client_hedges_fired_total", "client_hedges_won_total", "client_coalesced_rpcs_total",
			"client_coalesced_pages_total", "client_fetch_rpcs_total", "client_pages_fetched_total",
			"meta_cache_hits_total", "meta_cache_misses_total", "client_reclaim_failures_total",
		},
	}
	// moved names, by role, samples the workload must have moved off
	// zero, summed over the role's services.
	moved = map[string][]string{
		"version-manager": {`version_wal_appends_total`, `version_checkpoints_total`,
			`rpc_handler_seconds_count{kind="AssignReq"}`, `rpc_handler_seconds_count{kind="ExpireReq"}`},
		"provider-manager": {`rpc_handler_seconds_count{kind="AllocateReq"}`, `provider_manager_live_providers`},
		"data": {`store_appends_total`, `store_snapshots_total`, `store_compactions_total`,
			`rpc_handler_seconds_count{kind="PutPageReq"}`, `rpc_handler_seconds_count{kind="DeletePagesReq"}`},
		"metadata": {`store_appends_total`, `store_compactions_total`,
			`rpc_handler_seconds_count{kind="DHTMultiPutReq"}`, `rpc_handler_seconds_count{kind="DHTDeleteReq"}`},
		"client": {`client_page_cache_misses_total`, `client_fetch_rpcs_total`, `client_pages_fetched_total`,
			`meta_cache_misses_total`},
	}
)

// TestDebugServerScrapesEveryRole stands a durable cluster up on
// loopback TCP, runs appends, overwrites, reads, Expire, GC and Compact
// through it, and gives every service — and the client — a debug server
// of its own, the one -debug-addr starts. Each /metrics scrape, over
// real TCP, must parse as Prometheus text and carry every series its
// service writes; the counters the workload must move must have moved;
// and /debug/pprof/ must answer.
func TestDebugServerScrapesEveryRole(t *testing.T) {
	dir := t.TempDir()
	cl, err := cluster.StartTCP(vclock.NewReal(), cluster.Config{
		DataProviders:          2,
		MetaProviders:          2,
		PageDir:                dir,
		PageStore:              pagestore.DiskOptions{SegmentBytes: 16 << 10, SnapshotEvery: 8},
		VersionWALPath:         filepath.Join(dir, "vm.wal"),
		VersionCheckpointEvery: 8,
		MetaLogDir:             dir,
		MetaLog:                dht.LogOptions{SegmentBytes: 4 << 10, SnapshotEvery: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	id, v := workload(t, cl)
	// A fresh client reads the newest version back cold: it is the client
	// scraped.
	c, err := cl.NewClient("")
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte{blobFill}, blobPages*pageSize)
	for i := range overwrites {
		copy(want[i%4*4*pageSize:], bytes.Repeat([]byte{byte(i)}, 4*pageSize))
	}
	got := make([]byte, len(want))
	if err := c.Read(context.Background(), id, v, got, 0); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("reading the newest version back: %v", err)
	}

	type target struct {
		role string
		src  obs.Source
	}
	targets := []target{{"version-manager", cl.VM}, {"provider-manager", cl.PM}, {"client", c}}
	for _, n := range cl.MetaNodes {
		targets = append(targets, target{"metadata", n})
	}
	for _, p := range cl.Providers {
		targets = append(targets, target{"data", p})
	}
	sums := make(map[string]map[string]float64)
	for _, tg := range targets {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := debugServer(ln.Addr().String(), tg.src)
		go srv.Serve(ln)
		defer srv.Close()
		base := "http://" + ln.Addr().String()

		families, samples := scrape(t, base+"/metrics")
		for _, name := range roleSeries[tg.role] {
			if !families[name] {
				t.Errorf("%s: no %s series", tg.role, name)
			}
		}
		for name := range families {
			if !slices.Contains(roleSeries[tg.role], name) {
				t.Errorf("%s: a %s series this test does not list", tg.role, name)
			}
		}
		if sums[tg.role] == nil {
			sums[tg.role] = make(map[string]float64)
		}
		for k, v := range samples {
			sums[tg.role][k] += v
		}

		resp, err := http.Get(base + "/debug/pprof/")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: /debug/pprof/ answered %s", tg.role, resp.Status)
		}
	}
	for role, names := range moved {
		for _, name := range names {
			if sums[role][name] == 0 {
				t.Errorf("%s: %s did not move", role, name)
			}
		}
	}
}

// The workload's blob: blobPages pages of blobFill, overwritten four
// pages at a time, overwrites times.
const (
	pageSize   = 4096
	blobPages  = 16
	blobFill   = 0xb1
	overwrites = 8
)

// workload appends a blob, overwrites it, reads it, expires every
// version but the newest, collects the garbage, compacts every log and
// checkpoints the version manager. It returns the blob and its newest
// version.
func workload(t *testing.T, cl *cluster.Cluster) (wire.BlobID, wire.Version) {
	t.Helper()
	ctx := context.Background()
	c, err := cl.NewClient("")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	id, err := c.Create(ctx, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	v, err := c.Append(ctx, id, bytes.Repeat([]byte{blobFill}, blobPages*pageSize))
	if err != nil {
		t.Fatal(err)
	}
	for i := range overwrites {
		if v, err = c.Write(ctx, id, bytes.Repeat([]byte{byte(i)}, 4*pageSize), uint64(i%4*4*pageSize)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Sync(ctx, id, v); err != nil {
		t.Fatal(err)
	}
	if err := c.Read(ctx, id, v, make([]byte, pageSize), 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.ExpireVersions(ctx, id, v-1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CollectGarbage(ctx, id); err != nil {
		t.Fatal(err)
	}
	for _, p := range cl.Providers {
		if err := p.Store().(*pagestore.Disk).Compact(); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.CompactMetadata(); err != nil {
		t.Fatal(err)
	}
	if err := cl.VM.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	return id, v
}

// samplePattern is one sample line of the Prometheus text format.
var samplePattern = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"(?:,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*\})? (\S+)$`)

// scrape GETs url and parses it as Prometheus text: the families its
// TYPE lines declare, and every sample by name and labels, without the
// le label's buckets.
func scrape(t *testing.T, url string) (families map[string]bool, samples map[string]float64) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: %s", url, resp.Status)
	}
	families, samples = make(map[string]bool), make(map[string]float64)
	typed := map[string]string{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if f := strings.Fields(line); len(f) >= 3 && f[0] == "#" {
			switch f[1] {
			case "HELP":
			case "TYPE":
				if len(f) != 4 || !slices.Contains([]string{"counter", "gauge", "histogram"}, f[3]) {
					t.Fatalf("%s: bad TYPE line %q", url, line)
				}
				families[f[2]], typed[f[2]] = true, f[3]
			default:
				t.Fatalf("%s: bad comment line %q", url, line)
			}
			continue
		}
		m := samplePattern.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("%s: not a sample line: %q", url, line)
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			t.Fatalf("%s: sample value in %q: %v", url, line, err)
		}
		fam := m[1]
		if typed[fam] == "" {
			fam = strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(fam, "_bucket"), "_sum"), "_count")
		}
		if typed[fam] == "" {
			t.Fatalf("%s: sample %q before its family's TYPE line", url, line)
		}
		samples[m[1]] += v
		samples[m[1]+m[2]] += v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return families, samples
}
