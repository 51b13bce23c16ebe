package meta

import (
	"encoding/binary"
	"sync"

	"blobseer/internal/core"
	"blobseer/internal/obs"
	"blobseer/internal/wire"
)

// cacheKey names a cached node the way its DHT key does — the blob that
// wrote it and its id — without spelling the key out: a hit costs no
// bytes.
type cacheKey struct {
	Owner wire.BlobID
	ID    core.NodeID
}

// Cache is a thread-safe LRU cache of tree nodes. Nodes are immutable,
// so entries never go stale; the only reason to evict is memory, which
// an entry count bounds. A capacity of 0 disables the cache (every get
// misses).
//
// A cached node is a 64-byte cacheEntry in a slab of fixed-size chunks
// that never move, found through an open-addressing index of int32
// entry numbers and kept in recency order by int32 links. Neither the
// slab nor the index holds a pointer, so the collector never scans
// them. A leaf's providers are a handle into lists, which holds each
// distinct list once. Once the cache is full, a hit and an evicting put
// allocate nothing.
type Cache struct {
	mu       sync.Mutex
	capacity int
	// chunks holds entries 0..n-1: entry i is
	// chunks[i>>chunkShift][i&chunkMask]. Entries are never freed, only
	// handed from an evicted node to its replacement.
	chunks [][]cacheEntry
	n      int32
	// head is the most recently used entry, -1 while the cache is empty;
	// the links form a ring, so entry(head).prev is the eviction
	// candidate.
	head int32
	// index maps a key to its entry by linear probing: a slot holds an
	// entry number plus one, 0 for empty. It doubles while the cache
	// fills, keeping the load at most ½, and never grows once it is
	// full.
	index []int32
	hash  func(cacheKey) uint64 // hashKey; tests narrow it to force collisions
	lists providerLists

	hits   uint64
	misses uint64
}

const (
	chunkShift = 9 // 512 entries, 32 KiB, per chunk
	chunkMask  = 1<<chunkShift - 1
	minIndex   = 16
)

// cacheEntry is one cached node: 64 bytes with no pointer in them. An
// inner node's child versions, or a leaf's page id, sit in payload; a
// leaf's providers are the list its handle names (0: nil). The cache
// keeps what the node's encoding keeps: a leaf's VL and VR and an inner
// node's page and providers are not stored.
type cacheEntry struct {
	key        cacheKey
	prev, next int32
	payload    [16]byte
	list       int32
	leaf       bool
}

// NewCache returns an LRU cache holding up to capacity nodes (at most
// 2^30: entries are numbered by int32).
func NewCache(capacity int) *Cache {
	return &Cache{capacity: min(capacity, 1<<30), head: -1, hash: hashKey}
}

// hashKey mixes the key's four words (a fixed multiply-xorshift
// per word, then a final avalanche), so nearby offsets and versions
// spread over the index.
func hashKey(k cacheKey) uint64 {
	h := uint64(k.Owner)
	for _, w := range [...]uint64{k.ID.Version, k.ID.Offset, k.ID.Span} {
		h = (h ^ h>>31) * 0x9e3779b97f4a7c15
		h ^= w
	}
	h = (h ^ h>>33) * 0xff51afd7ed558ccd
	h = (h ^ h>>33) * 0xc4ceb9fe1a85ec53
	return h ^ h>>33
}

func (c *Cache) entry(i int32) *cacheEntry {
	return &c.chunks[i>>chunkShift][i&chunkMask]
}

// lookup returns the entry holding key and its index slot, or -1 and
// the empty slot that ends key's probe sequence.
func (c *Cache) lookup(key cacheKey) (e int32, slot int) {
	if len(c.index) == 0 {
		return -1, 0
	}
	mask := len(c.index) - 1
	for slot = int(c.hash(key)) & mask; ; slot = (slot + 1) & mask {
		v := c.index[slot]
		if v == 0 {
			return -1, slot
		}
		if c.entry(v-1).key == key {
			return v - 1, slot
		}
	}
}

// unindex empties slot, shifting later members of its probe run back
// into the hole so that every key stays reachable from its home slot.
func (c *Cache) unindex(slot int) {
	mask := len(c.index) - 1
	for j := (slot + 1) & mask; c.index[j] != 0; j = (j + 1) & mask {
		home := int(c.hash(c.entry(c.index[j]-1).key)) & mask
		if (j-home)&mask >= (j-slot)&mask { // slot lies on j's probe path
			c.index[slot] = c.index[j]
			slot = j
		}
	}
	c.index[slot] = 0
}

// grow doubles the index and re-inserts every entry.
func (c *Cache) grow() {
	old := c.index
	c.index = make([]int32, max(minIndex, 2*len(old)))
	mask := len(c.index) - 1
	for _, v := range old {
		if v == 0 {
			continue
		}
		slot := int(c.hash(c.entry(v-1).key)) & mask
		for c.index[slot] != 0 {
			slot = (slot + 1) & mask
		}
		c.index[slot] = v
	}
}

// unlink takes e out of the recency ring.
func (c *Cache) unlink(e int32) {
	x := c.entry(e)
	if x.next == e {
		c.head = -1
		return
	}
	c.entry(x.prev).next, c.entry(x.next).prev = x.next, x.prev
	if c.head == e {
		c.head = x.next
	}
}

// pushFront makes e, which is not in the ring, the most recently used
// entry.
func (c *Cache) pushFront(e int32) {
	x := c.entry(e)
	if c.head < 0 {
		x.prev, x.next = e, e
	} else {
		h := c.entry(c.head)
		x.prev, x.next = h.prev, c.head
		c.entry(h.prev).next, h.prev = e, e
	}
	c.head = e
}

// touch makes e the most recently used entry.
func (c *Cache) touch(e int32) {
	if c.head != e {
		c.unlink(e)
		c.pushFront(e)
	}
}

func (c *Cache) get(key cacheKey) (core.Node, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, _ := c.lookup(key)
	if e < 0 {
		c.misses++
		return core.Node{}, false
	}
	c.touch(e)
	c.hits++
	x := c.entry(e)
	if x.leaf {
		return core.Node{Leaf: true, Page: wire.PageID(x.payload), Providers: c.lists.addrs(x.list)}, true
	}
	return core.Node{
		VL: binary.LittleEndian.Uint64(x.payload[:8]),
		VR: binary.LittleEndian.Uint64(x.payload[8:]),
	}, true
}

func (c *Cache) put(key cacheKey, n core.Node) {
	if c.capacity <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, _ := c.lookup(key); e >= 0 {
		c.touch(e)
		return // immutable: the stored value is already correct
	}
	x := cacheEntry{key: key, leaf: n.Leaf}
	if n.Leaf {
		x.payload = n.Page
		// Interned before any eviction releases a list, so a leaf that
		// replaces one naming the same providers keeps the list alive.
		x.list = c.lists.intern(n.Providers)
	} else {
		binary.LittleEndian.PutUint64(x.payload[:8], n.VL)
		binary.LittleEndian.PutUint64(x.payload[8:], n.VR)
	}
	var e int32
	if int(c.n) >= c.capacity {
		e = c.evict()
	} else {
		e = c.n
		c.n++
		if int(e)>>chunkShift == len(c.chunks) {
			c.chunks = append(c.chunks, make([]cacheEntry, min(1<<chunkShift, c.capacity-int(e))))
		}
		if 2*int(c.n) > len(c.index) {
			c.grow()
		}
	}
	*c.entry(e) = x
	c.pushFront(e)
	_, slot := c.lookup(key)
	c.index[slot] = e + 1
}

// evict drops the least recently used entry — from the ring, the index
// and its provider list's references — and returns it for reuse.
func (c *Cache) evict() int32 {
	victim := c.entry(c.head).prev
	c.unlink(victim)
	x := c.entry(victim)
	_, slot := c.lookup(x.key)
	c.unindex(slot)
	c.lists.release(x.list)
	return victim
}

// providerLists interns the provider lists of cached leaves: each
// distinct list is held once, cloned at first sight — so the cache
// pins neither a decoded node's slice nor a writer's whole address
// array — and dropped when no cached leaf names it any more. Handle 0
// is the nil list. A list handed out by addrs is shared by every leaf
// naming it and must not be modified.
type providerLists struct {
	lists []providerList // by handle; lists[0] stays unused
	free  []int32        // handles of dropped lists, for reuse
	// one finds a one-address list by its address; many finds any other
	// list by its addresses, each behind its length, joined in key.
	one  map[string]int32
	many map[string]int32
	key  []byte
}

type providerList struct {
	addrs []string
	refs  int32
}

func (p *providerLists) addrs(h int32) []string {
	if h == 0 {
		return nil
	}
	return p.lists[h].addrs
}

// manyKey spells out a list of other than one address in p.key.
func (p *providerLists) manyKey(addrs []string) []byte {
	p.key = p.key[:0]
	for _, a := range addrs {
		p.key = binary.AppendUvarint(p.key, uint64(len(a)))
		p.key = append(p.key, a...)
	}
	return p.key
}

// intern returns the handle of addrs' list, holding one more reference
// to it. Looking up a list it already holds allocates nothing.
func (p *providerLists) intern(addrs []string) int32 {
	if addrs == nil {
		return 0
	}
	var h int32
	var ok bool
	if len(addrs) == 1 {
		h, ok = p.one[addrs[0]]
	} else {
		h, ok = p.many[string(p.manyKey(addrs))]
	}
	if !ok {
		h = p.add(append(make([]string, 0, len(addrs)), addrs...))
	}
	p.lists[h].refs++
	return h
}

// add files a new list under a fresh handle.
func (p *providerLists) add(addrs []string) int32 {
	var h int32
	if n := len(p.free); n > 0 {
		h, p.free = p.free[n-1], p.free[:n-1]
		p.lists[h].addrs = addrs
	} else {
		if len(p.lists) == 0 {
			p.lists = append(p.lists, providerList{}) // handle 0: nil
		}
		h = int32(len(p.lists))
		p.lists = append(p.lists, providerList{addrs: addrs})
	}
	if len(addrs) == 1 {
		if p.one == nil {
			p.one = make(map[string]int32)
		}
		p.one[addrs[0]] = h
	} else {
		if p.many == nil {
			p.many = make(map[string]int32)
		}
		p.many[string(p.manyKey(addrs))] = h
	}
	return h
}

// release drops one reference to h's list, and the list with its last.
func (p *providerLists) release(h int32) {
	if h == 0 {
		return
	}
	l := &p.lists[h]
	if l.refs--; l.refs > 0 {
		return
	}
	if len(l.addrs) == 1 {
		delete(p.one, l.addrs[0])
	} else {
		delete(p.many, string(p.manyKey(l.addrs)))
	}
	*l = providerList{}
	p.free = append(p.free, h)
}

// Metrics writes the cache's series: the lookups that hit and missed.
func (c *Cache) Metrics(s *obs.Sink) {
	c.mu.Lock()
	hits, misses := c.hits, c.misses
	c.mu.Unlock()
	s.Counter("meta_cache_hits_total", "tree-node lookups the metadata cache answered", float64(hits))
	s.Counter("meta_cache_misses_total", "tree-node lookups that went to the metadata providers", float64(misses))
}
