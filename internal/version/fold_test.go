package version

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"blobseer/internal/wire"
)

var (
	foldSeed  = flag.Int64("fold-seed", 0, "replay this one seed of TestFoldEqualsLive (0 = the default budget)")
	foldSeeds = flag.Int("fold-seeds", 24, "seeds TestFoldEqualsLive runs by default")
)

// TestFoldEqualsLive is the property the one transition function exists
// for: drive a durable manager through a random schedule of create,
// branch, assign, complete, abort and expire over several blobs, with
// checkpoints and restarts at random points, and at every quiescent
// point the state the disk folds to — snapshot plus tail segments
// through transition — fingerprints byte-identically to the live one,
// branch pins included. The generator is seeded with the shapes behind
// the hand-found bugs. A failing seed prints how to replay it.
func TestFoldEqualsLive(t *testing.T) {
	seeds := make([]int64, 0, *foldSeeds)
	if *foldSeed != 0 {
		seeds = append(seeds, *foldSeed)
	}
	for s := int64(1); len(seeds) < cap(seeds) && *foldSeed == 0; s++ {
		seeds = append(seeds, s)
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			defer func() {
				if t.Failed() {
					t.Logf("replay: go test ./internal/version -run 'TestFoldEqualsLive' -fold-seed=%d", seed)
				}
			}()
			runFoldSchedule(t, seed, 160)
		})
	}
}

// foldRun is one schedule in progress: the manager under test and the
// little the generator remembers to aim its next request.
type foldRun struct {
	t    *testing.T
	rng  *rand.Rand
	cfg  ManagerConfig
	m    *Manager
	stop func()

	blobs    []wire.BlobID
	assigned map[wire.BlobID][]wire.Version // every version ever assigned, finished or not
}

func runFoldSchedule(t *testing.T, seed int64, steps int) {
	r := &foldRun{
		t:   t,
		rng: rand.New(rand.NewSource(seed)),
		cfg: ManagerConfig{
			WALPath:         filepath.Join(t.TempDir(), "vm.wal"),
			WALSegmentBytes: 256, // a handful of events per segment
			RetainVersions:  1,
		},
		assigned: make(map[wire.BlobID][]wire.Version),
	}
	r.m, r.stop = startDurable(t, r.cfg)
	defer func() { r.stop() }()
	r.create()
	for i := 0; i < steps && !t.Failed(); i++ {
		r.step()
		if r.rng.Intn(4) == 0 {
			r.check(fmt.Sprintf("after step %d", i))
		}
	}
	r.check("at the end")
}

// try sends one request. A refusal is part of the schedule (the
// generator aims loosely on purpose); a failing log is not.
func (r *foldRun) try(req wire.Msg) wire.Msg {
	r.t.Helper()
	resp, err := r.m.Apply(context.Background(), req)
	switch wire.CodeOf(err) {
	case wire.CodeUnavailable, wire.CodeUnknown:
		if err != nil {
			r.t.Fatalf("%v: %v", req.Kind(), err)
		}
	}
	return resp
}

func (r *foldRun) pick() wire.BlobID { return r.blobs[r.rng.Intn(len(r.blobs))] }

// version picks one of the blob's assigned versions (0 when it has none).
func (r *foldRun) version(b wire.BlobID) wire.Version {
	if vs := r.assigned[b]; len(vs) > 0 {
		return vs[r.rng.Intn(len(vs))]
	}
	return 0
}

func (r *foldRun) create() wire.BlobID {
	id := r.try(&wire.CreateBlobReq{PageSize: 1 << (9 + r.rng.Intn(4))}).(*wire.CreateBlobResp).Blob
	r.blobs = append(r.blobs, id)
	return id
}

func (r *foldRun) assign(b wire.BlobID) wire.Version {
	req := &wire.AssignReq{Blob: b, Size: uint64(1 + r.rng.Intn(300)), Append: r.rng.Intn(3) > 0}
	if !req.Append {
		req.Offset = uint64(r.rng.Intn(200))
	}
	resp, _ := r.try(req).(*wire.AssignResp)
	if resp == nil {
		return 0 // a write past the end
	}
	r.assigned[b] = append(r.assigned[b], resp.Version)
	return resp.Version
}

func (r *foldRun) complete(b wire.BlobID, v wire.Version) {
	r.try(&wire.CompleteReq{Blob: b, Version: v})
}

func (r *foldRun) abort(b wire.BlobID, v wire.Version) {
	r.try(&wire.AbortReq{Blob: b, Version: v})
}

func (r *foldRun) recent(b wire.BlobID) wire.Version {
	return r.try(&wire.RecentReq{Blob: b}).(*wire.RecentResp).Version
}

// branch branches b at version at, if the manager agrees.
func (r *foldRun) branch(b wire.BlobID, at wire.Version) (wire.BlobID, bool) {
	resp, _ := r.try(&wire.BranchReq{Blob: b, Version: at}).(*wire.BranchResp)
	if resp == nil {
		return 0, false
	}
	r.blobs = append(r.blobs, resp.NewBlob)
	return resp.NewBlob, true
}

func (r *foldRun) step() {
	b := r.pick()
	switch n := r.rng.Intn(100); {
	case n < 4 && len(r.blobs) < 6:
		r.create()
	case n < 10 && len(r.blobs) < 9:
		r.branch(b, wire.Version(r.rng.Intn(int(r.recent(b))+1)))
	case n < 40:
		r.assign(b)
	case n < 62:
		r.complete(b, r.version(b))
	case n < 70:
		r.abort(b, r.version(b))
	case n < 78:
		r.try(&wire.ExpireReq{Blob: b, UpTo: wire.Version(r.rng.Intn(int(r.recent(b)) + 1))})
	case n < 83:
		if err := r.m.Checkpoint(); err != nil {
			r.t.Fatalf("checkpoint: %v", err)
		}
	case n < 87:
		r.restart()
	case n < 91:
		r.shapeDoubleAbortWave(b)
	case n < 95:
		r.shapeAbandonedUpdate(b)
	default:
		r.shapeGrandparentPin(b)
	}
}

// shapeDoubleAbortWave: two waves of aborted appends leave the dense
// publication pointer resting on an aborted version; the append that
// follows must land after the live data (PR 11's offset-0 bug).
func (r *foldRun) shapeDoubleAbortWave(b wire.BlobID) {
	r.complete(b, r.assign(b))
	r.abort(b, r.assign(b))
	r.abort(b, r.assign(b))
	r.complete(b, r.assign(b))
}

// shapeAbandonedUpdate: one writer goes silent ahead of later assigns,
// some of which complete behind it; much later it is aborted, taking the
// cascade with it.
func (r *foldRun) shapeAbandonedUpdate(b wire.BlobID) {
	abandoned := r.assign(b)
	r.complete(b, r.assign(b))
	r.assign(b)
	if r.rng.Intn(2) == 0 {
		r.abort(b, abandoned)
	}
}

// shapeGrandparentPin: branch a branch at a version the grandparent's
// namespace owns — the pin lands on the grandparent, not the parent —
// then EXPIRE the grandparent against it.
func (r *foldRun) shapeGrandparentPin(b wire.BlobID) {
	r.complete(b, r.assign(b))
	r.complete(b, r.assign(b))
	at := r.recent(b)
	child, ok := r.branch(b, at)
	if !ok {
		return
	}
	r.complete(child, r.assign(child))
	if at > 0 {
		at-- // below the child's own namespace: b (or an ancestor of b) owns it
	}
	r.branch(child, at)
	r.complete(b, r.assign(b))
	r.try(&wire.ExpireReq{Blob: b, UpTo: at})
}

// restart closes the manager and opens the next incarnation on the same
// log; what comes up must be what went down.
func (r *foldRun) restart() {
	want, wantPins := fingerprint(r.m), livePins(r.m)
	r.stop()
	r.m, r.stop = startDurable(r.t, r.cfg)
	if got := fingerprint(r.m); !bytes.Equal(got, want) {
		r.t.Fatalf("state changed across a restart\n got: %x\nwant: %x", got, want)
	}
	if got := livePins(r.m); got != wantPins {
		r.t.Fatalf("pins changed across a restart\n got: %s\nwant: %s", got, wantPins)
	}
}

// check compares the live state with what the disk folds to right now.
func (r *foldRun) check(when string) {
	r.t.Helper()
	st, err := foldDisk(r.t, r.cfg.WALPath)
	if err != nil {
		r.t.Fatalf("%s: fold of the disk: %v", when, err)
	}
	if got, want := pinsOf(st.blobs), livePins(r.m); got != want {
		r.t.Fatalf("%s: fold(disk) and the live state disagree on pins\nfold: %s\nlive: %s", when, got, want)
	}
	st.nextSeg = 0
	if got, want := encodeSnapshot(st), fingerprint(r.m); !bytes.Equal(got, want) {
		r.t.Fatalf("%s: fold(disk) differs from the live state\nfold: %x\nlive: %x", when, got, want)
	}
}

// pinsOf canonically renders the branch pins of a set of blob states —
// derived state the snapshot encoding leaves out.
func pinsOf(blobs []*blobState) string {
	var out []string
	for _, b := range blobs {
		for child, at := range b.pins {
			out = append(out, fmt.Sprintf("%d<-%d@%d", b.id, child, at))
		}
	}
	sort.Strings(out)
	return strings.Join(out, " ")
}

func livePins(m *Manager) string {
	var blobs []*blobState
	for _, sh := range m.allShards() {
		blobs = append(blobs, sh.state)
	}
	return pinsOf(blobs)
}
