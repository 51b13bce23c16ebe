package meta

import (
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
type Cache struct {
	mu       sync.Mutex
	capacity int
	entries  map[cacheKey]*cacheEntry
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
}

// NewCache returns an LRU cache holding up to capacity nodes.
func NewCache(capacity int) *Cache {
	c := &Cache{capacity: capacity, entries: make(map[cacheKey]*cacheEntry)}
	c.lru.prev, c.lru.next = &c.lru, &c.lru
	return c
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
	*e = cacheEntry{key: key, node: n}
	c.touch(e)
	c.entries[key] = e
}

// evict drops the least recently used entry and returns it.
func (c *Cache) evict() *cacheEntry {
	oldest := c.lru.prev
	oldest.unlink()
	delete(c.entries, oldest.key)
	return oldest
}

// Metrics writes the cache's series: the lookups that hit and missed.
func (c *Cache) Metrics(s *obs.Sink) {
	c.mu.Lock()
	hits, misses := c.hits, c.misses
	c.mu.Unlock()
	s.Counter("meta_cache_hits_total", "tree-node lookups the metadata cache answered", float64(hits))
	s.Counter("meta_cache_misses_total", "tree-node lookups that went to the metadata providers", float64(misses))
}
