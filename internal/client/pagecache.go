package client

import (
	"container/list"
	"sync"

	"blobseer/internal/bufpool"
	"blobseer/internal/vclock"
	"blobseer/internal/wire"
)

// pageCache is a byte-bounded LRU of whole pages keyed by page id, with
// single-flight: a lookup that finds another reader already fetching the
// same page joins that fetch instead of issuing its own RPC. Pages are
// immutable and their ids globally unique, so entries never go stale —
// the only reason to evict is memory, and a hit is correct across any
// set of snapshot versions.
//
// A page lives in a pooled buffer (wire.Reader.Bytes32Pooled) and its
// entry is reference-counted: the cache holds one reference while the
// entry is resident, and every reader holds one while it copies out of
// the page. acquire and complete hand out references, release and
// eviction drop them, and whoever drops the last one returns the buffer
// to the pool. A reference that is never dropped (a waiter whose context
// ended) only leaves the buffer to the garbage collector; recycling a
// buffer someone still reads is the one thing that is never done.
//
// pageMu is a leaf lock: it is never held across an RPC, a cache fetch,
// a pool release or another acquisition. Waiter events are fired and
// buffers recycled outside it.
//
//blobseer:lockorder pageMu
type pageCache struct {
	sched    vclock.Scheduler
	capBytes int64
	stats    *readStats

	pageMu  sync.Mutex
	bytes   int64
	ll      *list.List // front = most recently used
	entries map[wire.PageID]*list.Element
	flights map[wire.PageID]*pageFlight
}

// pageEntry is one fetched page. data is nil once the last reference
// is gone and the buffer went back to the pool.
type pageEntry struct {
	id   wire.PageID
	data []byte
	refs int // guarded by pageMu
}

// pageFlight is one in-progress fetch; waiters joined after it started
// and get the result (or the leader's error) through their events.
type pageFlight struct {
	waiters []vclock.Event
}

// flightResult is the payload delivered to single-flight waiters: on
// success the entry, with a reference the waiter must release.
type flightResult struct {
	ent *pageEntry
	err error
}

func newPageCache(sched vclock.Scheduler, capBytes int64, stats *readStats) *pageCache {
	return &pageCache{
		sched:    sched,
		capBytes: capBytes,
		stats:    stats,
		ll:       list.New(),
		entries:  make(map[wire.PageID]*list.Element),
		flights:  make(map[wire.PageID]*pageFlight),
	}
}

// acquire resolves one page lookup three ways: a hit returns the cached
// entry with a reference the caller must release; a join returns an
// event that fires with the in-flight fetch's result; a lead (both
// returns nil) registers a new flight that the caller must resolve with
// exactly one complete call — even on failure, or joined waiters would
// block forever.
func (pc *pageCache) acquire(id wire.PageID) (ent *pageEntry, wait vclock.Event, lead bool) {
	pc.pageMu.Lock()
	defer pc.pageMu.Unlock()
	if el, ok := pc.entries[id]; ok {
		pc.ll.MoveToFront(el)
		pc.stats.hits.Add(1)
		ent := el.Value.(*pageEntry)
		ent.refs++
		return ent, nil, false
	}
	if fl, ok := pc.flights[id]; ok {
		pc.stats.shares.Add(1)
		ev := pc.sched.NewEvent()
		fl.waiters = append(fl.waiters, ev)
		return nil, ev, false
	}
	pc.stats.misses.Add(1)
	pc.flights[id] = &pageFlight{}
	return nil, nil, true
}

// complete resolves the flight acquire registered. On success data —
// a pooled buffer the cache now owns — becomes an entry holding one
// reference for the leader, one per joined waiter and one for the cache
// if it is retained; the leader's entry is returned for it to release,
// and every waiter receives it. On failure waiters receive the error
// and fetch for themselves (the leader's failure may be private to it —
// a cancelled context, a connection it alone lost).
func (pc *pageCache) complete(id wire.PageID, data []byte, err error) *pageEntry {
	var ent *pageEntry
	var spill [2][]byte // an insert usually evicts one page at most
	evicted := spill[:0]
	pc.pageMu.Lock()
	fl := pc.flights[id]
	delete(pc.flights, id)
	if err == nil {
		ent = &pageEntry{id: id, data: data, refs: 1}
		if fl != nil {
			ent.refs += len(fl.waiters)
		}
		evicted = pc.insertLocked(ent, evicted)
	}
	pc.pageMu.Unlock()
	recycle(evicted)
	if fl != nil {
		for _, ev := range fl.waiters {
			ev.Fire(flightResult{ent: ent, err: err})
		}
	}
	return ent
}

// release drops a reader's reference; the last one recycles the page.
func (pc *pageCache) release(ent *pageEntry) {
	pc.pageMu.Lock()
	data := pc.unrefLocked(ent)
	pc.pageMu.Unlock()
	if data != nil {
		bufpool.PutBytes(data)
	}
}

// unrefLocked drops one reference and, if it was the last, detaches
// the buffer for the caller to recycle once pageMu is released.
func (pc *pageCache) unrefLocked(ent *pageEntry) []byte {
	ent.refs--
	if ent.refs > 0 {
		return nil
	}
	data := ent.data
	ent.data = nil
	return data
}

// insertLocked makes ent resident, taking the cache's reference, and
// evicts from the LRU tail past the byte budget, dropping the cache's
// reference on each victim; it appends to evicted the buffers whose
// last reference that was. A page larger than the whole budget is not
// retained.
func (pc *pageCache) insertLocked(ent *pageEntry, evicted [][]byte) [][]byte {
	if _, ok := pc.entries[ent.id]; ok {
		return evicted // immutable: the resident copy is already correct
	}
	cost := pageBytes(ent.data)
	if cost > pc.capBytes {
		return evicted
	}
	ent.refs++
	pc.entries[ent.id] = pc.ll.PushFront(ent)
	pc.bytes += cost
	for pc.bytes > pc.capBytes && pc.ll.Len() > 0 {
		oldest := pc.ll.Back()
		victim := oldest.Value.(*pageEntry)
		pc.ll.Remove(oldest)
		pc.bytes -= pageBytes(victim.data)
		delete(pc.entries, victim.id)
		if data := pc.unrefLocked(victim); data != nil {
			evicted = append(evicted, data)
		}
	}
	return evicted
}

// pageBytes is one entry's accounted memory cost: the page's whole
// buffer — a pooled buffer for a short page takes up its size class —
// plus the id, list element and map slot overhead. A resident entry
// always holds its buffer (the cache's own reference keeps it).
func pageBytes(data []byte) int64 {
	return int64(cap(data)) + 64
}

// recycle returns page buffers nobody holds any more to the pool.
func recycle(pages [][]byte) {
	for _, p := range pages {
		bufpool.PutBytes(p)
	}
}
