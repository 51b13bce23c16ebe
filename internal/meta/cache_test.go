package meta

import (
	"container/list"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"blobseer/internal/core"
	"blobseer/internal/wire"
)

// lruModel is the reference the cache is held to: a container/list LRU
// of whole nodes, front most recently used.
type lruModel struct {
	capacity int
	order    *list.List // of *modelEntry
	at       map[cacheKey]*list.Element
}

type modelEntry struct {
	key  cacheKey
	node core.Node
}

func newLRUModel(capacity int) *lruModel {
	return &lruModel{capacity: capacity, order: list.New(), at: make(map[cacheKey]*list.Element)}
}

func (m *lruModel) get(k cacheKey) (core.Node, bool) {
	e, ok := m.at[k]
	if !ok {
		return core.Node{}, false
	}
	m.order.MoveToFront(e)
	return e.Value.(*modelEntry).node, true
}

func (m *lruModel) put(k cacheKey, n core.Node) {
	if m.capacity <= 0 {
		return
	}
	if e, ok := m.at[k]; ok {
		m.order.MoveToFront(e)
		return
	}
	if m.order.Len() >= m.capacity {
		old := m.order.Remove(m.order.Back()).(*modelEntry)
		delete(m.at, old.key)
	}
	m.at[k] = m.order.PushFront(&modelEntry{key: k, node: n})
}

// lists is how many distinct non-nil provider lists the resident
// leaves name: what the cache's intern table must hold.
func (m *lruModel) lists() int {
	seen := make(map[string]bool)
	for _, e := range m.at {
		n := e.Value.(*modelEntry).node
		if n.Leaf && n.Providers != nil {
			seen[strings.Join(n.Providers, "\x00")] = true
		}
	}
	return len(seen)
}

// modelNode is key i's node, fresh on every call the way a decoded node
// is: an inner node, a one-provider leaf, a two-provider leaf or a leaf
// with nil providers. The two-provider lists share first addresses, so
// a list told apart by its first address alone names the wrong
// providers.
func modelNode(i int) core.Node {
	addrs := []string{"10.0.0.1:1", "10.0.0.2:1", "10.0.0.3:1"}
	page := wire.PageID{byte(i), byte(i >> 8), 0xAA}
	switch i % 4 {
	case 0:
		return core.Node{VL: wire.Version(i), VR: wire.Version(i / 2)}
	case 1:
		return core.Node{Leaf: true, Page: page, Providers: []string{strings.Clone(addrs[i/4%3])}}
	case 2:
		first, second := addrs[i/4%2], addrs[2-i/8%2]
		return core.Node{Leaf: true, Page: page, Providers: []string{strings.Clone(first), strings.Clone(second)}}
	}
	return core.Node{Leaf: true, Page: page}
}

func modelKey(i int) cacheKey {
	return cacheKey{Owner: wire.BlobID(1 + i%3), ID: core.NodeID{Version: wire.Version(i / 3), Offset: uint64(i), Span: uint64(1 + i%4/3)}}
}

// TestCacheMatchesLRUModel runs seeded get/put sequences against the
// cache and the reference LRU side by side, with the real hash and one
// narrowed to 2 bits (every key collides with a quarter of the others):
// every hit and miss, every node returned and the intern table's size
// must agree, and the table must be empty once every leaf is evicted.
func TestCacheMatchesLRUModel(t *testing.T) {
	hashes := map[string]func(cacheKey) uint64{
		"hash":    hashKey,
		"collide": func(k cacheKey) uint64 { return hashKey(k) & 3 },
	}
	for _, capacity := range []int{1, 2, 3, 7, 64} {
		for name, hash := range hashes {
			for seed := int64(1); seed <= 8; seed++ {
				t.Run(fmt.Sprintf("cap=%d/%s/seed=%d", capacity, name, seed), func(t *testing.T) {
					runCacheModel(t, capacity, hash, seed)
				})
			}
		}
	}
}

func runCacheModel(t *testing.T, capacity int, hash func(cacheKey) uint64, seed int64) {
	c := NewCache(capacity)
	c.hash = hash
	m := newLRUModel(capacity)
	rng := rand.New(rand.NewSource(seed))
	keys := 3*capacity + 4
	var hits, misses int
	for step := 0; step < 2000; step++ {
		i := rng.Intn(keys)
		k := modelKey(i)
		if rng.Intn(2) == 0 {
			c.put(k, modelNode(i))
			m.put(k, modelNode(i))
		} else {
			got, gotOK := c.get(k)
			want, wantOK := m.get(k)
			if gotOK != wantOK || !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: get(%d) = %+v, %v; the model says %+v, %v", step, i, got, gotOK, want, wantOK)
			}
			if wantOK {
				hits++
			} else {
				misses++
			}
		}
		if lists := len(c.lists.one) + len(c.lists.many); int(c.n) != m.order.Len() || lists != m.lists() {
			t.Fatalf("step %d: %d entries and %d lists; the model holds %d and %d", step, c.n, lists, m.order.Len(), m.lists())
		}
	}
	if c.hits != uint64(hits) || c.misses != uint64(misses) {
		t.Fatalf("counted %d hits and %d misses, want %d and %d", c.hits, c.misses, hits, misses)
	}
	// Inner nodes under fresh keys push every leaf out.
	for i := 0; i < capacity; i++ {
		c.put(modelKey(4*(keys+i)), modelNode(0))
	}
	if n := len(c.lists.one) + len(c.lists.many); n != 0 {
		t.Fatalf("%d provider lists left once every leaf is evicted", n)
	}
}

// TestMetaCacheBytesPerNode holds a filled default-size cache to its
// footprint: at most 80 B per node at rest and 100 B per node allocated
// to fill it (a map of entry objects took 224 and 304), and no
// allocation for a hit or for an evicting put once it is full.
func TestMetaCacheBytesPerNode(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds to every allocation")
	}
	fill, rest := cacheFillCost(16384)
	t.Logf("%.1f B/node to fill, %.1f B/node at rest", fill, rest)
	if fill > 100 || rest > 80 {
		t.Errorf("%.1f B/node to fill and %.1f at rest, budget 100 and 80", fill, rest)
	}

	const capacity = 1024
	keys, vals := cacheFillInput(3 * capacity)
	c := NewCache(capacity)
	for i := range capacity {
		c.put(keys[i], vals[i])
	}
	if a := testing.AllocsPerRun(100, func() { c.get(keys[capacity/2]) }); a != 0 {
		t.Errorf("a hit allocates %v times", a)
	}
	next := capacity
	if a := testing.AllocsPerRun(1000, func() {
		c.put(keys[next], vals[next])
		next++
	}); a != 0 {
		t.Errorf("an evicting put allocates %v times", a)
	}
}
