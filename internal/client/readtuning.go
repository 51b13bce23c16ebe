package client

import (
	"sync/atomic"
	"time"

	"blobseer/internal/obs"
)

// ReadTuning is the read path's one budget and two switches, passed
// through unchanged from the public API to the client. The zero value
// turns every mechanism on at its default.
type ReadTuning struct {
	// PageCacheBytes bounds the client page cache — whole immutable
	// pages kept in memory so re-reads of a hot snapshot cost no RPC
	// and concurrent readers of the same page share one in-flight
	// fetch. Pages read once use at most a quarter of it; only a page
	// read again earns a place in the rest, so a scan cannot flush the
	// hot set. 0 means the 32 MiB default; negative disables the cache
	// (and with it single-flight dedup).
	PageCacheBytes int64
	// NoHedge turns hedging off. On, a page fetch that one replica has
	// not answered within twice the best p99 latency observed across its
	// replicas (floor 1ms) fires the same request at the next replica,
	// once, and takes whichever answers first; no fetch hedges until
	// enough calls have completed to estimate that p99. Either way a
	// fetch fails over on hard errors, through every replica if need be.
	NoHedge bool
	// NoCoalesce turns coalescing off. On, up to 16 pages of one read
	// whose replica sets coincide travel in one provider round trip.
	NoCoalesce bool
}

const (
	defPageCacheBytes = 32 << 20
	// coalescePages is how many pages one fetch carries at most: 1 MiB
	// of the default 64 KiB pages.
	coalescePages = 16
	// maxFanout bounds how many page transfers one operation keeps in
	// flight, like the prototype's bounded I/O threads. Reads, writes and
	// GC sweeps share it.
	maxFanout = 64
	// minHedgeDelay floors the adaptive hedge delay: below it the
	// latency estimate is noise and hedges would fire on every call.
	minHedgeDelay = time.Millisecond
)

// PageCacheStats counts read-path events since the client was built:
// the shape of the Deprecated PageCacheStats view, which reads each
// field off the client's series.
type PageCacheStats struct {
	Hits, Misses           uint64
	Shares                 uint64
	HedgesFired, HedgesWon uint64
	CoalescedRPCs          uint64
	CoalescedPages         uint64
	FetchRPCs              uint64
	PagesFetched           uint64
}

// Deprecated: read the client_* read-path series (Metrics); kept only
// until internal/blast stops naming it.
func (c *Client) PageCacheStats() PageCacheStats {
	v := func(name string) uint64 { return uint64(obs.Value(c, "client_"+name+"_total")) }
	return PageCacheStats{v("page_cache_hits"), v("page_cache_misses"), v("single_flight_shares"), v("hedges_fired"),
		v("hedges_won"), v("coalesced_rpcs"), v("coalesced_pages"), v("fetch_rpcs"), v("pages_fetched")}
}

// readStats counts read-path events; the client's series report them.
// All counters are monotonic; ratios between them are the read
// amplification metrics the read ablation (A11) reports.
type readStats struct {
	hits, misses, shares    atomic.Uint64
	hedgesFired, hedgesWon  atomic.Uint64
	coalRPCs, coalPages     atomic.Uint64
	fetchRPCs, pagesFetched atomic.Uint64
}

func (r *readStats) metrics(s *obs.Sink) {
	s.Counter("client_page_cache_hits_total", "page-cache lookups that found the page", float64(r.hits.Load()))
	s.Counter("client_page_cache_misses_total", "page-cache lookups that did not", float64(r.misses.Load()))
	s.Counter("client_single_flight_shares_total", "lookups that waited for another reader's fetch of the page instead of fetching it again", float64(r.shares.Load()))
	s.Counter("client_hedges_fired_total", "extra replica requests sent because the first replica was slow", float64(r.hedgesFired.Load()))
	s.Counter("client_hedges_won_total", "fetches a hedge answered first", float64(r.hedgesWon.Load()))
	s.Counter("client_coalesced_rpcs_total", "page requests that carried more than one page", float64(r.coalRPCs.Load()))
	s.Counter("client_coalesced_pages_total", "pages the batched requests carried", float64(r.coalPages.Load()))
	s.Counter("client_fetch_rpcs_total", "page-fetch requests sent, hedges, failovers and batches included", float64(r.fetchRPCs.Load()))
	s.Counter("client_pages_fetched_total", "pages delivered by winning fetches; over the distinct pages read, the duplicate-fetch ratio", float64(r.pagesFetched.Load()))
}
