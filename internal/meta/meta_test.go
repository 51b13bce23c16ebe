package meta

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"

	"blobseer/internal/core"
	"blobseer/internal/dht"
	"blobseer/internal/obs"
	"blobseer/internal/rpc"
	"blobseer/internal/transport"
	"blobseer/internal/vclock"
	"blobseer/internal/wire"
)

func newDHT(t testing.TB, nodes int) *dht.Client {
	t.Helper()
	net := transport.NewInproc()
	sched := vclock.NewReal()
	addrs := make([]string, nodes)
	served := make([]*dht.Node, nodes)
	for i := range addrs {
		ln, err := net.Listen(fmt.Sprintf("meta-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if served[i], err = dht.ServeNode(ln, sched, "", dht.LogOptions{}); err != nil {
			t.Fatal(err)
		}
		addrs[i] = served[i].Addr()
	}
	ring, err := dht.NewRing(addrs, 1)
	if err != nil {
		t.Fatal(err)
	}
	rc := rpc.NewClient(net, sched)
	t.Cleanup(func() {
		rc.Close()
		for _, n := range served {
			n.Close()
		}
		net.Close()
	})
	return dht.NewClient(ring, rc, sched)
}

func soleLineage(b wire.BlobID) wire.Lineage {
	return wire.Lineage{{Blob: b, MinVersion: 0}}
}

func TestNodeKeyDeterministicAndDistinct(t *testing.T) {
	a := NodeKey(1, core.NodeID{Version: 2, Offset: 4, Span: 2})
	b := NodeKey(1, core.NodeID{Version: 2, Offset: 4, Span: 2})
	if !bytes.Equal(a, b) {
		t.Fatal("same node, different keys")
	}
	variants := [][]byte{
		NodeKey(2, core.NodeID{Version: 2, Offset: 4, Span: 2}),
		NodeKey(1, core.NodeID{Version: 3, Offset: 4, Span: 2}),
		NodeKey(1, core.NodeID{Version: 2, Offset: 6, Span: 2}),
		NodeKey(1, core.NodeID{Version: 2, Offset: 4, Span: 4}),
	}
	for i, v := range variants {
		if bytes.Equal(a, v) {
			t.Fatalf("variant %d collides", i)
		}
	}
	// A metadata node stores keys of exactly this size and refuses others.
	for _, k := range append(variants, a, NodeKey(^wire.BlobID(0), core.NodeID{Version: ^uint64(0), Offset: ^uint64(0), Span: ^uint64(0)})) {
		if len(k) != dht.KeyLen {
			t.Fatalf("node key of %d bytes, the DHT stores %d", len(k), dht.KeyLen)
		}
	}
}

func TestStoreRoundTrip(t *testing.T) {
	d := newDHT(t, 3)
	st := NewStore(d, soleLineage(7), nil)
	ctx := context.Background()

	ids := []core.NodeID{
		{Version: 1, Offset: 0, Span: 1},
		{Version: 1, Offset: 1, Span: 1},
		{Version: 1, Offset: 0, Span: 2},
	}
	nodes := []core.Node{
		{Leaf: true, Page: wire.PageID{1}, Providers: []string{"p1"}},
		{Leaf: true, Page: wire.PageID{2}, Providers: []string{"p2"}},
		{VL: 1, VR: 1},
	}
	if err := st.PutNodes(ctx, ids, nodes); err != nil {
		t.Fatal(err)
	}
	got, err := st.GetNodes(ctx, ids, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ids {
		if !reflect.DeepEqual(got[i], nodes[i]) {
			t.Fatalf("node %v: got %+v want %+v", ids[i], got[i], nodes[i])
		}
	}
}

func TestStoreMissingNodeError(t *testing.T) {
	d := newDHT(t, 1)
	st := NewStore(d, soleLineage(7), nil)
	_, err := st.GetNodes(context.Background(), []core.NodeID{{Version: 9, Offset: 0, Span: 1}}, nil)
	if !wire.IsNotFound(err) {
		t.Fatalf("err = %v, want not-found", err)
	}
}

func TestStoreLineageResolution(t *testing.T) {
	// Blob 10 branched from blob 3 at version 5: versions <= 5 live under
	// blob 3's namespace; versions >= 6 under blob 10's.
	d := newDHT(t, 2)
	ctx := context.Background()

	parent := NewStore(d, soleLineage(3), nil)
	oldID := core.NodeID{Version: 4, Offset: 0, Span: 1}
	oldNode := core.Node{Leaf: true, Page: wire.PageID{0xAA}, Providers: []string{"p"}}
	if err := parent.PutNodes(ctx, []core.NodeID{oldID}, []core.Node{oldNode}); err != nil {
		t.Fatal(err)
	}

	branch := NewStore(d, wire.Lineage{{Blob: 10, MinVersion: 6}, {Blob: 3, MinVersion: 0}}, nil)
	// The branch sees the parent's old node through lineage resolution.
	got, err := branch.GetNodes(ctx, []core.NodeID{oldID}, nil)
	if err != nil || !reflect.DeepEqual(got[0], oldNode) {
		t.Fatalf("branch read of shared node: %+v, %v", got, err)
	}

	// New nodes written through the branch land in the branch namespace
	// and are invisible to the parent.
	newID := core.NodeID{Version: 6, Offset: 0, Span: 1}
	newNode := core.Node{Leaf: true, Page: wire.PageID{0xBB}, Providers: []string{"p"}}
	if err := branch.PutNodes(ctx, []core.NodeID{newID}, []core.Node{newNode}); err != nil {
		t.Fatal(err)
	}
	if got, err := branch.GetNodes(ctx, []core.NodeID{newID}, nil); err != nil || !reflect.DeepEqual(got[0], newNode) {
		t.Fatalf("branch read own node: %+v, %v", got, err)
	}
	if _, err := parent.GetNodes(ctx, []core.NodeID{newID}, nil); !wire.IsNotFound(err) {
		t.Fatalf("parent sees branch-private node: err = %v", err)
	}
}

func TestStoreCacheAvoidsRefetch(t *testing.T) {
	d := newDHT(t, 1)
	cache := NewCache(128)
	st := NewStore(d, soleLineage(1), cache)
	ctx := context.Background()

	id := core.NodeID{Version: 1, Offset: 0, Span: 1}
	node := core.Node{Leaf: true, Page: wire.PageID{5}, Providers: []string{"p"}}
	if err := st.PutNodes(ctx, []core.NodeID{id}, []core.Node{node}); err != nil {
		t.Fatal(err)
	}
	// PutNodes warms the cache; this get must not touch the DHT.
	if _, err := st.GetNodes(ctx, []core.NodeID{id}, nil); err != nil {
		t.Fatal(err)
	}
	hits, misses := obs.Value(cache, "meta_cache_hits_total"), obs.Value(cache, "meta_cache_misses_total")
	if hits != 1 || misses != 0 {
		t.Fatalf("hits=%v misses=%v, want 1/0", hits, misses)
	}

	// A cold cache misses once, then hits.
	st2 := NewStore(d, soleLineage(1), NewCache(128))
	st2.GetNodes(ctx, []core.NodeID{id}, nil)
	st2.GetNodes(ctx, []core.NodeID{id}, nil)
	h2, m2 := obs.Value(st2.cache, "meta_cache_hits_total"), obs.Value(st2.cache, "meta_cache_misses_total")
	if h2 != 1 || m2 != 1 {
		t.Fatalf("cold cache hits=%v misses=%v, want 1/1", h2, m2)
	}
}

func TestStoreMixedCacheHitMiss(t *testing.T) {
	d := newDHT(t, 2)
	cache := NewCache(128)
	st := NewStore(d, soleLineage(1), cache)
	ctx := context.Background()

	var ids []core.NodeID
	var nodes []core.Node
	for i := 0; i < 10; i++ {
		ids = append(ids, core.NodeID{Version: 1, Offset: uint64(i), Span: 1})
		nodes = append(nodes, core.Node{Leaf: true, Page: wire.PageID{byte(i + 1)}, Providers: []string{"p"}})
	}
	if err := st.PutNodes(ctx, ids, nodes); err != nil {
		t.Fatal(err)
	}
	// Read through a store with a cache warmed for only half the nodes.
	half := NewCache(128)
	stHalf := NewStore(d, soleLineage(1), half)
	if _, err := stHalf.GetNodes(ctx, ids[:5], nil); err != nil {
		t.Fatal(err)
	}
	got, err := stHalf.GetNodes(ctx, ids, nil) // 5 cached + 5 fetched
	if err != nil {
		t.Fatal(err)
	}
	for i := range ids {
		if !reflect.DeepEqual(got[i], nodes[i]) {
			t.Fatalf("node %d mismatch after mixed fetch", i)
		}
	}
}

// ck names a cache entry for the tests below: one key per (letter, i).
func ck(letter string, i ...int) cacheKey {
	k := cacheKey{Owner: wire.BlobID(letter[0])}
	if len(i) > 0 {
		k.ID.Offset = uint64(i[0])
	}
	return k
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2)
	n := core.Node{VL: 1, VR: 2}
	c.put(ck("a"), n)
	c.put(ck("b"), n)
	c.get(ck("a")) // a is now most recent
	c.put(ck("c"), n)
	if _, ok := c.get(ck("b")); ok {
		t.Fatal("LRU entry not evicted")
	}
	if _, ok := c.get(ck("a")); !ok {
		t.Fatal("recently used entry evicted")
	}
	if _, ok := c.get(ck("c")); !ok {
		t.Fatal("new entry missing")
	}
	if c.n != 2 {
		t.Fatalf("Len = %d", c.n)
	}
}

func TestCacheZeroCapacity(t *testing.T) {
	c := NewCache(0)
	c.put(ck("a"), core.Node{})
	if c.n != 0 {
		t.Fatal("zero-capacity cache stored an entry")
	}
}

func TestPutNodesLengthMismatch(t *testing.T) {
	d := newDHT(t, 1)
	st := NewStore(d, soleLineage(1), nil)
	if err := st.PutNodes(context.Background(), make([]core.NodeID, 2), make([]core.Node, 1)); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestStoreWorksWithCoreAlgorithms(t *testing.T) {
	// End-to-end: build a real tree through the production store and read
	// it back with core.ReadPlan.
	d := newDHT(t, 4)
	st := NewStore(d, soleLineage(42), NewCache(1024))
	ctx := context.Background()
	gen := wire.NewPageIDGen()

	pages := make([]core.PageWrite, 16)
	for i := range pages {
		pages[i] = core.PageWrite{Page: gen.Next(), Providers: []string{"prov"}}
	}
	plan, err := core.PlanUpdate(core.Update{
		Version: 1, Pages: core.Range{Start: 0, Count: 16}, NewSizePages: 16,
	}, pages)
	if err != nil {
		t.Fatal(err)
	}
	defer plan.Release()
	ids, nodes, err := plan.Resolve(ctx, st)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PutNodes(ctx, ids, nodes); err != nil {
		t.Fatal(err)
	}
	reads, err := core.ReadPlan(ctx, st, core.RootID(1, 16), core.Range{Start: 3, Count: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range reads {
		if r.Page != pages[3+i].Page {
			t.Fatalf("page %d mismatch", 3+i)
		}
	}
}
