package client

import (
	"sync/atomic"
	"time"

	"blobseer/internal/obs"
	"blobseer/internal/wire"
)

// ReadTuning collects every read-path knob as one struct, so the public
// API, the client config and the binaries pass the same value through
// instead of copying knobs field by field. The zero value means "all
// defaults"; each knob uses a negative value to disable its mechanism.
type ReadTuning struct {
	// PageCacheBytes bounds the client page cache — whole immutable
	// pages kept in memory so re-reads of a hot snapshot cost no RPC
	// and concurrent readers of the same page share one in-flight
	// fetch. Pages read once use at most a quarter of it; only a page
	// read again earns a place in the rest, so a scan cannot flush the
	// hot set. 0 means the 32 MiB default; negative disables the cache
	// (and with it single-flight dedup).
	PageCacheBytes int64
	// HedgeDelay is how long a page fetch waits on one replica before
	// hedging: firing the same request at the next replica, once, and
	// taking whichever answers first. 0 means adaptive — twice the
	// observed p99 latency of the chosen replica (floor 1ms), no
	// hedging until enough calls have completed to estimate it.
	// Negative disables hedging; fetches still fail over on hard
	// errors, through every replica if need be.
	HedgeDelay time.Duration
	// CoalescePages bounds how many pages of one read are batched into
	// a single provider round trip when their replica sets coincide.
	// 0 means the default of 16; negative (or 1) disables coalescing.
	// Values above wire.MaxGetPagesRanges (the protocol's per-request
	// cap, which providers enforce) are clamped to it.
	CoalescePages int
	// MaxFanout bounds how many page transfers one operation keeps in
	// flight (default 64, like the prototype's bounded I/O threads;
	// negative means unbounded). Writes and GC sweeps share the bound.
	MaxFanout int
}

const (
	defPageCacheBytes = 32 << 20
	defCoalescePages  = 16
	defMaxFanout      = 64
	// minHedgeDelay floors the adaptive hedge delay: below it the
	// latency estimate is noise and hedges would fire on every call.
	minHedgeDelay = time.Millisecond
)

// withDefaults resolves the zero values to the documented defaults.
func (t ReadTuning) withDefaults() ReadTuning {
	if t.PageCacheBytes == 0 {
		t.PageCacheBytes = defPageCacheBytes
	}
	if t.CoalescePages == 0 {
		t.CoalescePages = defCoalescePages
	}
	if t.CoalescePages > wire.MaxGetPagesRanges {
		t.CoalescePages = wire.MaxGetPagesRanges
	}
	if t.MaxFanout == 0 {
		t.MaxFanout = defMaxFanout
	}
	return t
}

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
	s.Counter("client_coalesced_rpcs_total", "batched page requests (GET_PAGES)", float64(r.coalRPCs.Load()))
	s.Counter("client_coalesced_pages_total", "pages the batched requests carried", float64(r.coalPages.Load()))
	s.Counter("client_fetch_rpcs_total", "page-fetch requests sent, hedges, failovers and batches included", float64(r.fetchRPCs.Load()))
	s.Counter("client_pages_fetched_total", "pages delivered by winning fetches; over the distinct pages read, the duplicate-fetch ratio", float64(r.pagesFetched.Load()))
}
