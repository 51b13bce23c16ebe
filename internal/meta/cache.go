package meta

import (
	"sync"

	"blobseer/internal/core"
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
// so entries never go stale; the only reason to evict is memory. Two
// bounds apply independently: an entry count and — because entries are
// not uniform, a handful of wide replicated leaves can hold more memory
// than thousands of inner nodes — an optional byte budget covering keys
// and node payloads. Whichever bound is exceeded evicts from the LRU
// tail. A capacity of 0 disables the cache (every get misses).
type Cache struct {
	mu            sync.Mutex
	capacity      int
	capacityBytes int64 // 0 = no byte bound
	bytes         int64
	entries       map[cacheKey]*cacheEntry
	// lru is the sentinel of the recency ring: lru.next is the most
	// recently used entry, lru.prev the eviction candidate.
	lru cacheEntry

	hits   uint64
	misses uint64
}

// cacheEntry is one cached node and its links in the recency ring: one
// allocation per cached node, none once the cache is full (see put).
type cacheEntry struct {
	prev, next *cacheEntry
	key        cacheKey
	node       core.Node
	bytes      int64
}

// NewCache returns an LRU cache holding up to capacity nodes, with no
// byte bound.
func NewCache(capacity int) *Cache {
	return NewCacheBytes(capacity, 0)
}

// NewCacheBytes returns an LRU cache bounded by both an entry count and,
// when capacityBytes > 0, a total byte budget over keys and node
// payloads. An entry larger than the whole byte budget is simply not
// retained.
func NewCacheBytes(capacity int, capacityBytes int64) *Cache {
	c := &Cache{
		capacity:      capacity,
		capacityBytes: capacityBytes,
		entries:       make(map[cacheKey]*cacheEntry),
	}
	c.lru.prev, c.lru.next = &c.lru, &c.lru
	return c
}

// entryBytes estimates one entry's memory cost: the key (charged at its
// DHT length, whatever form the cache holds it in, so a byte budget
// buys what it always bought), the fixed node fields, and the provider
// address list of a leaf (the part that actually varies — a widely
// replicated page's leaf dwarfs an inner node).
func entryBytes(n core.Node) int64 {
	cost := int64(nodeKeyLen) + 48 // key + node struct + ring links
	for _, p := range n.Providers {
		cost += int64(len(p)) + 16
	}
	return cost
}

func (e *cacheEntry) unlink() {
	e.prev.next, e.next.prev = e.next, e.prev
}

// touch makes e the most recently used entry.
func (c *Cache) touch(e *cacheEntry) {
	e.prev, e.next = &c.lru, c.lru.next
	e.prev.next, e.next.prev = e, e
}

func (c *Cache) get(key cacheKey) (core.Node, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		e.unlink()
		c.touch(e)
		c.hits++
		return e.node, true
	}
	c.misses++
	return core.Node{}, false
}

func (c *Cache) put(key cacheKey, n core.Node) {
	if c.capacity <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		e.unlink()
		c.touch(e)
		return // immutable: the stored value is already correct
	}
	// A full cache gives its eviction candidate's entry to the newcomer,
	// so steady-state traffic through it allocates nothing.
	var e *cacheEntry
	if len(c.entries) >= c.capacity {
		e = c.evict()
	} else {
		e = new(cacheEntry)
	}
	*e = cacheEntry{key: key, node: n, bytes: entryBytes(n)}
	c.touch(e)
	c.entries[key] = e
	c.bytes += e.bytes
	for len(c.entries) > 0 && c.capacityBytes > 0 && c.bytes > c.capacityBytes {
		c.evict()
	}
}

// evict drops the least recently used entry and returns it.
func (c *Cache) evict() *cacheEntry {
	oldest := c.lru.prev
	oldest.unlink()
	c.bytes -= oldest.bytes
	delete(c.entries, oldest.key)
	return oldest
}

// Len returns the number of cached nodes.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Bytes returns the accounted memory cost of the cached nodes.
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Stats returns cumulative hit and miss counts.
func (c *Cache) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
