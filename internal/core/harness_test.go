package core

import (
	"context"
	"fmt"
	"testing"

	"blobseer/internal/wire"
)

// fakeStore is a strict in-memory NodeStore: fetching a missing node
// fails, exactly like the production store, so dangling weaving links are
// caught immediately.
type fakeStore struct {
	nodes map[NodeID]Node
	gets  int // GetNodes round trips, for overhead assertions
}

func newFakeStore() *fakeStore {
	return &fakeStore{nodes: make(map[NodeID]Node)}
}

func (f *fakeStore) GetNodes(_ context.Context, ids []NodeID, buf []Node) ([]Node, error) {
	f.gets++
	out := buf[:0]
	for _, id := range ids {
		n, ok := f.nodes[id]
		if !ok {
			return nil, fmt.Errorf("fakeStore: missing node %v", id)
		}
		out = append(out, n)
	}
	return out, nil
}

func (f *fakeStore) PutNodes(_ context.Context, ids []NodeID, nodes []Node) error {
	if len(ids) != len(nodes) {
		return fmt.Errorf("fakeStore: %d ids, %d nodes", len(ids), len(nodes))
	}
	for i, id := range ids {
		if _, dup := f.nodes[id]; dup {
			continue
		}
		f.nodes[id] = nodes[i]
	}
	return nil
}

func (f *fakeStore) nodeCount() int { return len(f.nodes) }

// blobSim drives the core algorithms the way the version manager and a
// client would, with a reference model for verification. It supports the
// paper's concurrency pattern: several updates assigned (and therefore
// holding in-flight knowledge of each other) before any publishes.
// failer is the slice of testing.T/testing.B the harness needs.
type failer interface {
	Helper()
	Fatalf(format string, args ...any)
	Fatal(args ...any)
}

type blobSim struct {
	t     failer
	st    *fakeStore
	gen   *wire.PageIDGen
	model []modelSnapshot // index = version

	published wire.Version
	inFlight  []InFlight // assigned, unpublished, ascending versions
	nextVer   wire.Version
	// pendingSize tracks blob size growth across assigned-but-unpublished
	// appends, like the version manager does.
	pendingSize uint64
}

// modelSnapshot is the expected content of one snapshot: which PageID
// owns each blob page.
type modelSnapshot struct {
	size  uint64
	pages []wire.PageID
}

func newBlobSim(t *testing.T) *blobSim {
	return &blobSim{
		t:   t,
		st:  newFakeStore(),
		gen: wire.NewPageIDGen(),
		// Version 0: the empty snapshot.
		model:   []modelSnapshot{{size: 0, pages: nil}},
		nextVer: 1,
	}
}

// assign mimics the version manager: allocate the next version, record
// the in-flight descriptor, return the Update a writer would receive.
// Pass start == ^uint64(0) for an append.
func (b *blobSim) assign(start, count uint64) (Update, []PageWrite) {
	if start == ^uint64(0) {
		start = b.pendingSize
	}
	if start > b.pendingSize {
		b.t.Fatalf("assign: offset %d beyond size %d", start, b.pendingSize)
	}
	u := Update{
		Version:            b.nextVer,
		Pages:              Range{Start: start, Count: count},
		Published:          b.published,
		PublishedSizePages: b.model[b.published].size,
		InFlight:           append([]InFlight(nil), b.inFlight...),
	}
	newSize := b.pendingSize
	if start+count > newSize {
		newSize = start + count
	}
	u.NewSizePages = newSize
	b.pendingSize = newSize
	b.inFlight = append(b.inFlight, InFlight{Version: u.Version, Pages: u.Pages})
	b.nextVer++

	pages := make([]PageWrite, count)
	for i := range pages {
		pages[i] = PageWrite{Page: b.gen.Next(), Providers: []string{fmt.Sprintf("prov-%d", i%7)}}
	}

	// Extend the reference model: snapshot u.Version = snapshot
	// u.Version-1 overlaid with the new pages.
	prev := b.model[u.Version-1]
	snap := modelSnapshot{size: newSize, pages: make([]wire.PageID, newSize)}
	copy(snap.pages, prev.pages)
	for i := uint64(0); i < count; i++ {
		snap.pages[start+i] = pages[i].Page
	}
	b.model = append(b.model, snap)
	return u, pages
}

// build runs the writer's metadata path: plan, resolve borders against
// the published tree, finalize, store.
func (b *blobSim) build(u Update, pages []PageWrite) {
	b.t.Helper()
	plan, err := PlanUpdate(u, pages)
	if err != nil {
		b.t.Fatalf("PlanUpdate v%d: %v", u.Version, err)
	}
	defer plan.Release()
	resolved, err := resolvePublished(context.Background(), b.st,
		u.Published, u.PublishedSizePages, plan.NeedPublished())
	if err != nil {
		b.t.Fatalf("ResolvePublished v%d: %v", u.Version, err)
	}
	ids, nodes, err := plan.Finalize(resolved)
	if err != nil {
		b.t.Fatalf("Finalize v%d: %v", u.Version, err)
	}
	if err := b.st.PutNodes(context.Background(), ids, nodes); err != nil {
		b.t.Fatalf("PutNodes v%d: %v", u.Version, err)
	}
}

// resolvePublished is ResolvePublished into a map of its own.
func resolvePublished(ctx context.Context, st NodeStore, published wire.Version,
	publishedSizePages uint64, ranges []Range) (map[Range]wire.Version, error) {
	out := make(map[Range]wire.Version)
	if err := ResolvePublished(ctx, st, published, publishedSizePages, ranges, out); err != nil {
		return nil, err
	}
	return out, nil
}

// publish marks the oldest in-flight update published (the version
// manager publishes strictly in order).
func (b *blobSim) publish() {
	if len(b.inFlight) == 0 {
		b.t.Fatal("publish with nothing in flight")
	}
	v := b.inFlight[0].Version
	b.inFlight = b.inFlight[1:]
	b.published = v
}

// update is the common fast path: assign, build, publish immediately.
func (b *blobSim) update(start, count uint64) wire.Version {
	u, pages := b.assign(start, count)
	b.build(u, pages)
	b.publish()
	return u.Version
}

// verify checks ReadPlan against the reference model for the given
// version over the given range.
func (b *blobSim) verify(v wire.Version, r Range) {
	b.t.Helper()
	snap := b.model[v]
	root := RootID(v, snap.size)
	got, err := ReadPlan(context.Background(), b.st, root, r)
	if err != nil {
		b.t.Fatalf("ReadPlan v%d %v: %v", v, r, err)
	}
	if uint64(len(got)) != r.Count {
		b.t.Fatalf("ReadPlan v%d %v: %d pages", v, r, len(got))
	}
	for i, pr := range got {
		wantIdx := r.Start + uint64(i)
		if pr.Index != wantIdx {
			b.t.Fatalf("ReadPlan v%d %v: page %d has index %d, want %d", v, r, i, pr.Index, wantIdx)
		}
		if pr.Page != snap.pages[wantIdx] {
			b.t.Fatalf("ReadPlan v%d %v: page %d resolves to %v, want %v",
				v, r, wantIdx, pr.Page, snap.pages[wantIdx])
		}
	}
}

// verifyAll checks every page of every published snapshot.
func (b *blobSim) verifyAll() {
	b.t.Helper()
	for v := wire.Version(1); v <= b.published; v++ {
		if sz := b.model[v].size; sz > 0 {
			b.verify(v, Range{Start: 0, Count: sz})
		}
	}
}
