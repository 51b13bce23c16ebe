// Package client implements the BlobSeer client library: the READ,
// WRITE, APPEND, GET_RECENT, GET_SIZE, SYNC, CREATE and BRANCH primitives
// of §2.1, speaking to the version manager, provider manager, data
// providers and metadata DHT.
//
// Concurrency model (§3.3, §4.2): writers store pages and weave metadata
// with no mutual synchronization; the single ordering point is version
// assignment at the version manager. Unaligned updates need the previous
// snapshot's boundary bytes, so they alone synchronize on the previous
// version before merging (the paper only sketches unaligned handling; the
// exact semantics implemented here are stated on Write, update and
// mergeAndFinish in write.go, and what becomes of the optimistically
// stored pages in README.md, "Retention and garbage collection").
package client

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"blobseer/internal/dht"
	"blobseer/internal/meta"
	"blobseer/internal/obs"
	"blobseer/internal/rpc"
	"blobseer/internal/transport"
	"blobseer/internal/vclock"
	"blobseer/internal/wire"
)

// Config wires a Client to a cluster.
type Config struct {
	// Net is the transport to dial services through.
	Net transport.Network
	// Sched drives parallel fan-out; defaults to the real clock.
	Sched vclock.Scheduler
	// VersionManager and ProviderManager are service addresses.
	VersionManager  string
	ProviderManager string
	// MetaRing maps metadata keys to metadata provider addresses.
	MetaRing *dht.Ring
	// Deprecated: ignored, the rpc client keeps one connection per peer;
	// kept only until internal/blast stops naming it.
	ConnsPerHost int
	// MetaCacheNodes sets the client metadata cache capacity in nodes
	// (default 16384; negative disables caching).
	MetaCacheNodes int
	// Read tunes the read path — the page cache's budget, and hedged
	// replica requests and range coalescing on or off — as one struct,
	// passed through unchanged from the public API. The zero value means
	// all on, at the defaults; see ReadTuning.
	Read ReadTuning
	// PageReplication stores each page on this many distinct providers
	// (default 1 — the paper's layout). Reads spread over the replicas and
	// fail over when a provider is unreachable. Replication is the paper's
	// stated future work (§3.2); writes cost R times the page traffic.
	PageReplication int
}

// Client is a BlobSeer client. It is safe for concurrent use by many
// goroutines; the paper's workloads (§5) run hundreds of concurrent
// readers and writers through handles like this one.
type Client struct {
	cfg    Config
	sched  vclock.Scheduler
	rpc    *rpc.Client
	dht    *dht.Client
	cache  *meta.Cache
	pages  *pageCache // nil when the page cache is disabled
	rstats readStats
	gen    *wire.PageIDGen

	// reclaimFailures counts failed best-effort page reclaims (reclaimPages).
	reclaimFailures atomic.Uint64

	mu    sync.Mutex
	blobs map[wire.BlobID]*blobHandle

	// gcCrash is the test-only fault injector for CollectGarbage: called
	// once per delete batch, a non-nil return drops that batch as a crash
	// would.
	gcCrash func(chunk int) error
}

// blobHandle caches a blob's immutable attributes.
type blobHandle struct {
	pageSize uint64
	store    *meta.Store
}

// New builds a Client.
func New(cfg Config) (*Client, error) {
	if cfg.Net == nil {
		return nil, fmt.Errorf("client: no transport configured")
	}
	if cfg.MetaRing == nil {
		return nil, fmt.Errorf("client: no metadata ring configured")
	}
	if cfg.VersionManager == "" || cfg.ProviderManager == "" {
		return nil, fmt.Errorf("client: version and provider manager addresses are required")
	}
	if cfg.Sched == nil {
		cfg.Sched = vclock.NewReal()
	}
	cacheNodes := cfg.MetaCacheNodes
	if cacheNodes == 0 {
		cacheNodes = 16384
	}
	if cfg.PageReplication < 1 {
		cfg.PageReplication = 1
	}
	var cache *meta.Cache
	if cacheNodes > 0 {
		cache = meta.NewCache(cacheNodes)
	}
	rc := rpc.NewClient(cfg.Net, cfg.Sched)
	c := &Client{
		cfg:   cfg,
		sched: cfg.Sched,
		rpc:   rc,
		dht:   dht.NewClient(cfg.MetaRing, rc, cfg.Sched),
		cache: cache,
		gen:   wire.NewPageIDGen(),
		blobs: make(map[wire.BlobID]*blobHandle),
	}
	budget := cfg.Read.PageCacheBytes
	if budget == 0 {
		budget = defPageCacheBytes
	}
	if budget > 0 {
		c.pages = newPageCache(c.sched, budget, &c.rstats)
	}
	return c, nil
}

// Close releases the client's connections. The page cache is left to
// the garbage collector, not drained into the buffer pool: pooled
// buffers outliving a measured run would be counted in the next run's
// starting heap by internal/blast, which reads it after a single GC.
// What a drain would save is bounded anyway: a client that only scans
// leaves a quarter of its budget behind, its probation segment.
func (c *Client) Close() { c.rpc.Close() }

// Metrics writes the client's series: its read path's, its metadata
// cache's (when it keeps one), and the page reclaims that failed.
func (c *Client) Metrics(s *obs.Sink) {
	c.rstats.metrics(s)
	if c.cache != nil {
		c.cache.Metrics(s)
	}
	s.Counter("client_reclaim_failures_total", "best-effort deletes of pages an aborted or abandoned update stored that failed: garbage no collection finds", float64(c.reclaimFailures.Load()))
}

// Deprecated: read meta_cache_hits_total and meta_cache_misses_total
// (Metrics); kept only until internal/blast stops naming it.
func (c *Client) MetaCacheStats() (hits, misses uint64) {
	return uint64(obs.Value(c, "meta_cache_hits_total")), uint64(obs.Value(c, "meta_cache_misses_total"))
}

// vm issues a call to the version manager.
func (c *Client) vm(ctx context.Context, req wire.Msg) (wire.Msg, error) {
	return c.rpc.Call(ctx, c.cfg.VersionManager, req)
}

// Create makes a new empty blob with the given page size (a power of
// two) and returns its globally unique id.
func (c *Client) Create(ctx context.Context, pageSize uint32) (wire.BlobID, error) {
	resp, err := c.vm(ctx, &wire.CreateBlobReq{PageSize: pageSize})
	if err != nil {
		return 0, err
	}
	return resp.(*wire.CreateBlobResp).Blob, nil
}

// handle fetches (and caches) a blob's immutable attributes.
func (c *Client) handle(ctx context.Context, id wire.BlobID) (*blobHandle, error) {
	c.mu.Lock()
	h, ok := c.blobs[id]
	c.mu.Unlock()
	if ok {
		return h, nil
	}
	resp, err := c.vm(ctx, &wire.BlobInfoReq{Blob: id})
	if err != nil {
		return nil, err
	}
	info := resp.(*wire.BlobInfoResp)
	h = &blobHandle{
		pageSize: uint64(info.PageSize),
		store:    meta.NewStore(c.dht, info.Lineage, c.cache),
	}
	c.mu.Lock()
	if existing, ok := c.blobs[id]; ok {
		h = existing
	} else {
		c.blobs[id] = h
	}
	c.mu.Unlock()
	return h, nil
}

// Recent implements GET_RECENT: a recently published version and its
// size. The returned version is >= every version published before the
// call.
func (c *Client) Recent(ctx context.Context, id wire.BlobID) (wire.Version, uint64, error) {
	resp, err := c.vm(ctx, &wire.RecentReq{Blob: id})
	if err != nil {
		return 0, 0, err
	}
	r := resp.(*wire.RecentResp)
	return r.Version, r.Size, nil
}

// Size implements GET_SIZE for a published snapshot.
func (c *Client) Size(ctx context.Context, id wire.BlobID, v wire.Version) (uint64, error) {
	resp, err := c.vm(ctx, &wire.SizeReq{Blob: id, Version: v})
	if err != nil {
		return 0, err
	}
	return resp.(*wire.SizeResp).Size, nil
}

// Sync implements SYNC: it blocks until version v of the blob is
// published (or fails if v was aborted).
func (c *Client) Sync(ctx context.Context, id wire.BlobID, v wire.Version) error {
	_, err := c.vm(ctx, &wire.SyncReq{Blob: id, Version: v})
	return err
}

// Branch implements BRANCH: it virtually duplicates the blob at published
// version v and returns the new blob's id. The clone shares all pages and
// metadata with the original up to v; both evolve independently after.
func (c *Client) Branch(ctx context.Context, id wire.BlobID, v wire.Version) (wire.BlobID, error) {
	resp, err := c.vm(ctx, &wire.BranchReq{Blob: id, Version: v})
	if err != nil {
		return 0, err
	}
	return resp.(*wire.BranchResp).NewBlob, nil
}

// Read lives in readpath.go together with the rest of the fetch
// pipeline (page cache, single-flight, hedged replicas, coalescing).

// pagesOf converts a byte size to a page count, rounding up.
func pagesOf(bytes, pageSize uint64) uint64 {
	return (bytes + pageSize - 1) / pageSize
}
