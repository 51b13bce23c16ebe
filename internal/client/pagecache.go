package client

import (
	"container/list"
	"sync"

	"blobseer/internal/bufpool"
	"blobseer/internal/vclock"
	"blobseer/internal/wire"
)

// probationDiv sets the share of the budget a page read once may use:
// 1/probationDiv. A quarter is 2Q's recommended size for its queue of
// pages seen once (Johnson & Shasha, "2Q: A Low Overhead High
// Performance Buffer Management Replacement Algorithm", VLDB 1994).
const probationDiv = 4

// putPage returns a page buffer nobody holds any more to the pool.
// Every recycle in this file goes through it, so a test can count them.
var putPage = bufpool.PutBytes

// pageCache is a byte-bounded segmented LRU of whole pages keyed by page
// id, with single-flight: a lookup that finds another reader already
// fetching the same page joins that fetch instead of issuing its own
// RPC. Pages are immutable and their ids globally unique, so entries
// never go stale — the only reason to evict is memory, and a hit is
// correct across any set of snapshot versions.
//
// The budget is split the way SLRU (Karedla, Love & Wherry, 1994) and
// 2Q split theirs. A fetched page enters probation, which holds a
// quarter of the budget; a hit there promotes it to protected, which
// holds the other three quarters. Protected past its share demotes its
// tail to the head of probation, and only probation's tail is evicted.
// So a scan of pages read once cycles through a quarter of the budget
// and never flushes a page read twice. probation + protected never
// exceeds the budget, and a page is never evicted by its own insert
// unless it is larger than the whole budget: a page that alone fills
// probation stays, and when it does not fit beside protected,
// protected's tail makes room.
//
// A page lives in a pooled buffer (wire.Codec.BytesPooled) and its
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
	probCap  int64 // probation's share of capBytes
	stats    *readStats

	pageMu    sync.Mutex
	probation segment // pages read once since they were fetched or demoted
	protected segment // pages hit in probation
	entries   map[wire.PageID]*list.Element
	flights   map[wire.PageID]*pageFlight
}

// segment is one LRU list of the cache and the bytes its entries cost.
type segment struct {
	ll    list.List // of *pageEntry; front = most recently used
	bytes int64
}

func (s *segment) push(ent *pageEntry) *list.Element {
	s.bytes += pageBytes(ent.data)
	return s.ll.PushFront(ent)
}

func (s *segment) remove(el *list.Element) *pageEntry {
	ent := s.ll.Remove(el).(*pageEntry)
	s.bytes -= pageBytes(ent.data)
	return ent
}

// pageEntry is one fetched page. data is nil once the last reference
// is gone and the buffer went back to the pool.
type pageEntry struct {
	id   wire.PageID
	data []byte
	refs int  // guarded by pageMu
	hot  bool // in protected, not probation; guarded by pageMu
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
		probCap:  capBytes / probationDiv,
		stats:    stats,
		entries:  make(map[wire.PageID]*list.Element),
		flights:  make(map[wire.PageID]*pageFlight),
	}
}

// acquire resolves one page lookup three ways: a hit returns the cached
// entry with a reference the caller must release; a join returns an
// event that fires with the in-flight fetch's result; a lead (both
// returns nil) registers a new flight that the caller must resolve with
// exactly one complete call — even on failure, or joined waiters would
// block forever. A hit in probation promotes the page, which may evict
// others.
func (pc *pageCache) acquire(id wire.PageID) (ent *pageEntry, wait vclock.Event, lead bool) {
	var spill [2][]byte // a promotion usually evicts nothing
	evicted := spill[:0]
	pc.pageMu.Lock()
	if el, ok := pc.entries[id]; ok {
		pc.stats.hits.Add(1)
		ent = el.Value.(*pageEntry)
		ent.refs++
		if ent.hot {
			pc.protected.ll.MoveToFront(el)
		} else {
			pc.probation.remove(el)
			ent.hot = true
			pc.entries[id] = pc.protected.push(ent)
			evicted = pc.balanceLocked(ent, evicted)
		}
	} else if fl, ok := pc.flights[id]; ok {
		pc.stats.shares.Add(1)
		wait = pc.sched.NewEvent()
		fl.waiters = append(fl.waiters, wait)
	} else {
		pc.stats.misses.Add(1)
		pc.flights[id] = &pageFlight{}
		lead = true
	}
	pc.pageMu.Unlock()
	recycle(evicted)
	return ent, wait, lead
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
		putPage(data)
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

// insertLocked makes ent resident at the head of probation, taking the
// cache's reference, and rebalances. A page larger than the whole
// budget is not retained.
func (pc *pageCache) insertLocked(ent *pageEntry, evicted [][]byte) [][]byte {
	if _, ok := pc.entries[ent.id]; ok {
		return evicted // immutable: the resident copy is already correct
	}
	if pageBytes(ent.data) > pc.capBytes {
		return evicted
	}
	ent.refs++
	pc.entries[ent.id] = pc.probation.push(ent)
	return pc.balanceLocked(ent, evicted)
}

// balanceLocked restores the segments' bounds after keep was inserted or
// promoted. Protected past its share demotes its tail to the head of
// probation; then, while probation is past its share or the cache past
// its budget, probation's tail is evicted, dropping the cache's
// reference. keep is never the victim; when it is all probation holds
// and still does not fit beside protected, protected's tail goes
// instead. It appends to evicted the buffers whose last reference an
// eviction dropped.
func (pc *pageCache) balanceLocked(keep *pageEntry, evicted [][]byte) [][]byte {
	for pc.protected.bytes > pc.capBytes-pc.probCap {
		ent := pc.protected.remove(pc.protected.ll.Back())
		ent.hot = false
		pc.entries[ent.id] = pc.probation.push(ent)
	}
	for pc.probation.bytes > pc.probCap || pc.probation.bytes+pc.protected.bytes > pc.capBytes {
		seg := &pc.probation
		if seg.ll.Back().Value.(*pageEntry) == keep {
			if pc.probation.bytes+pc.protected.bytes <= pc.capBytes {
				break
			}
			seg = &pc.protected
		}
		ent := seg.remove(seg.ll.Back())
		delete(pc.entries, ent.id)
		if data := pc.unrefLocked(ent); data != nil {
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
		putPage(p)
	}
}
