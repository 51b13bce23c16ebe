package client

import (
	"sync/atomic"
	"time"

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

// PageCacheStats counts read-path events since the client was built.
// All counters are monotonic; ratios between them are the read
// amplification metrics the read ablation (A11) reports.
type PageCacheStats struct {
	// Hits and Misses count page-cache lookups.
	Hits, Misses uint64
	// Shares counts single-flight joins: lookups that found another
	// reader already fetching the same page and waited for its result
	// instead of issuing a duplicate RPC.
	Shares uint64
	// HedgesFired counts extra replica requests launched because the
	// first replica was slow; HedgesWon counts fetches where such a
	// hedge delivered the winning answer.
	HedgesFired, HedgesWon uint64
	// CoalescedRPCs counts batched page requests (GetPagesReq) and
	// CoalescedPages the pages they carried.
	CoalescedRPCs, CoalescedPages uint64
	// FetchRPCs counts every page-fetch request put on the wire,
	// including hedges, failovers and batches. PagesFetched counts page
	// payloads delivered by winning attempts; FetchRPCs/PagesFetched is
	// the per-page request overhead, and PagesFetched over the distinct
	// pages read is the duplicate-fetch ratio.
	FetchRPCs, PagesFetched uint64
}

// readStats is the internal, atomically-updated form of PageCacheStats.
type readStats struct {
	hits, misses, shares    atomic.Uint64
	hedgesFired, hedgesWon  atomic.Uint64
	coalRPCs, coalPages     atomic.Uint64
	fetchRPCs, pagesFetched atomic.Uint64
}

func (s *readStats) snapshot() PageCacheStats {
	return PageCacheStats{
		Hits:           s.hits.Load(),
		Misses:         s.misses.Load(),
		Shares:         s.shares.Load(),
		HedgesFired:    s.hedgesFired.Load(),
		HedgesWon:      s.hedgesWon.Load(),
		CoalescedRPCs:  s.coalRPCs.Load(),
		CoalescedPages: s.coalPages.Load(),
		FetchRPCs:      s.fetchRPCs.Load(),
		PagesFetched:   s.pagesFetched.Load(),
	}
}
