package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"blobseer/internal/dht"
	"blobseer/internal/pagestore"
	"blobseer/internal/transport"
	"blobseer/internal/vclock"
	"blobseer/internal/wire"
)

// The maintenance fault points, as the stores declare them (the KV's
// crashPoints table and the Log's checkpoint, both in internal/seglog). TestKillAtEveryMaintenanceFaultPoint checks first that
// its cycle passes through exactly these, so a point added there fails
// here until it is listed.
var faultPoints = map[string][]string{
	roleData: {"snap-begin", "snap-captured", "snap-tmp-written", "snap-renamed",
		"compact-tmp-written", "compact-renamed", "compact-applied", "compact-sealed"},
	roleMeta: {"snap-begin", "snap-captured", "snap-tmp-written", "snap-renamed",
		"compact-tmp-written", "compact-renamed", "compact-applied", "compact-sealed"},
	roleVM: {"begin", "captured", "tmp-written", "renamed", "segment-deleted"},
}

var errKilled = errors.New("injected: service killed at a maintenance fault point")

// faultRig is the Config.Fault of a cluster that kills one armed
// service's maintenance at one point: from the first time the point is
// reached until the service is restarted, every fault point of that
// service fails, as if the process had died there.
type faultRig struct {
	mu    sync.Mutex
	armed struct {
		role  string
		i     int
		point string
	}
	fired bool
	seen  map[string][]string // role/i -> points reached, in order, while unarmed
}

func (r *faultRig) fault(role string, i int, point string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	a := r.armed
	if a.role != role || a.i != i {
		if a.role == "" {
			svc := fmt.Sprint(role, "/", i)
			if !slices.Contains(r.seen[svc], point) {
				r.seen[svc] = append(r.seen[svc], point)
			}
		}
		return nil
	}
	if point == a.point {
		r.fired = true
	}
	if r.fired {
		return errKilled
	}
	return nil
}

// TestKillAtEveryMaintenanceFaultPoint is the cluster-level crash table:
// on a durable cluster with small segments and index snapshots on, a
// cycle of overwrites, Expire, GC, Compact of every page store,
// CompactMetadata and a version-manager checkpoint passes through every
// fault point of every store. For each point, on a data provider, a
// metadata node and the version manager in turn, one cycle aborts that
// service's maintenance there; the service is killed and restarted, and
// every retained version — every acknowledged one the retention policy
// has not expired — reads back byte for byte through a fresh client.
func TestKillAtEveryMaintenanceFaultPoint(t *testing.T) {
	const (
		ps, pages = 4 << 10, 32
		retain    = 3 // versions kept readable below the newest
	)
	dir := t.TempDir()
	net := transport.NewInproc()
	defer net.Close()
	r := &faultRig{seen: make(map[string][]string)}
	// SnapshotEvery is on but too large to fire: each store keeps its
	// snapshot through Compact's covering one, and no background snapshot
	// seals a segment at a moment the cycle does not choose.
	cl, err := StartInproc(net, vclock.NewReal(), Config{
		DataProviders:          2,
		MetaProviders:          2,
		PageDir:                filepath.Join(dir, "pages"),
		PageStore:              pagestore.DiskOptions{SegmentBytes: 64 << 10, SnapshotEvery: 1 << 20},
		MetaLogDir:             filepath.Join(dir, "meta"),
		MetaLog:                dht.LogOptions{SegmentBytes: 64 << 10, SnapshotEvery: 1 << 20},
		VersionWALPath:         filepath.Join(dir, "vm", "wal"),
		VersionWALSegmentBytes: 512,
		VersionCheckpointEvery: 64,
		HeartbeatEvery:         time.Hour,
		Fault:                  r.fault,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()

	// The blob and a model of each retained version.
	c, err := cl.NewClient("")
	if err != nil {
		t.Fatal(err)
	}
	id, err := c.Create(ctx, ps)
	if err != nil {
		t.Fatal(err)
	}
	model := make([]byte, ps*pages)
	for i := range model {
		model[i] = byte(i * 7)
	}
	v, err := c.Append(ctx, id, model)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	retained := map[wire.Version][]byte{v: bytes.Clone(model)}

	// cycle overwrites four pages three times each — so the active
	// segments of both providers and of the metadata nodes hold pages and
	// tree nodes the GC then frees, and an explicit Compact seals them —
	// expires all
	// but the newest retain+1 versions, collects, and runs every store's
	// maintenance. Only the armed service's maintenance may fail.
	round := 0
	cycle := func() {
		t.Helper()
		round++
		c, err := cl.NewClient("")
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for w := 0; w < 12; w++ {
			off := (round*5 + w/3) % pages * ps
			page := model[off : off+ps]
			for i := range page {
				page[i] = byte(round*31+w) ^ byte(i)
			}
			if v, err = c.Write(ctx, id, page, uint64(off)); err != nil {
				t.Fatalf("round %d write %d: %v", round, w, err)
			}
			retained[v] = bytes.Clone(model)
		}
		if err := c.Sync(ctx, id, v); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.ExpireVersions(ctx, id, v-retain-1); err != nil {
			t.Fatal(err)
		}
		for old := range retained {
			if old < v-retain {
				delete(retained, old)
			}
		}
		if _, err := c.CollectGarbage(ctx, id); err != nil {
			t.Fatal(err)
		}
		r.mu.Lock()
		a := r.armed
		r.mu.Unlock()
		check := func(role string, i int, err error) {
			t.Helper()
			if err != nil && !(role == a.role && i == a.i && errors.Is(err, errKilled)) {
				t.Fatalf("round %d: maintenance of %s %d: %v", round, role, i, err)
			}
		}
		for i, p := range cl.Providers {
			check(roleData, i, p.Store().(*pagestore.Disk).Compact())
		}
		for i, n := range cl.MetaNodes {
			check(roleMeta, i, n.CompactLog())
		}
		check(roleVM, 0, cl.VM.Checkpoint())
	}
	verify := func(what string) {
		t.Helper()
		fresh, err := cl.NewClient("")
		if err != nil {
			t.Fatal(err)
		}
		defer fresh.Close()
		got := make([]byte, len(model))
		for rv, want := range retained {
			if err := fresh.Read(ctx, id, rv, got, 0); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%s: retained version %d does not read back: %v", what, rv, err)
			}
		}
	}

	// Calibration: an unarmed cycle reaches every point of every service
	// the table below kills.
	cycle()
	for role, points := range faultPoints {
		svc := fmt.Sprint(role, "/0")
		got := slices.Clone(r.seen[svc])
		want := slices.Clone(points)
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("a cycle reaches fault points %v of %s, the table lists %v", r.seen[svc], svc, points)
		}
	}
	verify("calibration")

	for _, role := range []string{roleData, roleMeta, roleVM} {
		for _, point := range faultPoints[role] {
			what := fmt.Sprintf("%s 0 killed at %s", role, point)
			r.mu.Lock()
			r.armed.role, r.armed.i, r.armed.point, r.fired = role, 0, point, false
			r.mu.Unlock()
			cycle()
			r.mu.Lock()
			fired := r.fired
			r.mu.Unlock()
			if !fired {
				t.Fatalf("%s: the cycle never reached the point", what)
			}
			if err := cl.Kill(role, 0); err != nil {
				t.Fatal(err)
			}
			if err := cl.Restart(role, 0); err != nil {
				t.Fatalf("%s: restart: %v", what, err)
			}
			r.mu.Lock()
			r.armed.role = ""
			r.mu.Unlock()
			verify(what)
		}
	}
	// The restarted services keep maintaining: one more clean cycle.
	cycle()
	verify("after the table")
}
