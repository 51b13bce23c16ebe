// Package blobseer is a binary large object (blob) management service
// with efficient versioning under heavy access concurrency, reproducing
//
//	Nicolae, Antoniu, Bougé — "BlobSeer: How to Enable Efficient
//	Versioning for Large Object Storage under Heavy Access Concurrency",
//	EDBT/ICDT Workshops (DAMAP), 2009.
//
// A blob is a mutable, growable byte sequence split into fixed-size
// pages scattered over data providers. Every WRITE or APPEND produces a
// new immutable snapshot version; unmodified pages and metadata subtrees
// are shared between versions, so keeping all history costs only the
// bytes actually written. Metadata is a distributed segment tree stored
// in a DHT; concurrent readers and writers need no mutual
// synchronization — the single ordering point is version assignment.
//
// # Quick start
//
//	cl, _ := blobseer.StartCluster(blobseer.ClusterOptions{})
//	defer cl.Close()
//	c, _ := cl.Client()
//	blob, _ := c.Create(ctx, blobseer.Options{PageSize: 64 << 10})
//	v, _ := blob.Append(ctx, data)
//	blob.Sync(ctx, v)             // wait for publication
//	buf := make([]byte, len(data))
//	blob.Read(ctx, v, buf, 0)     // read snapshot v
//
// Snapshots are immutable, so a version is a stable random-access file:
// At pins one and hands back an io.ReaderAt-shaped view, safe for any
// number of concurrent readers.
//
//	view, _ := blob.At(ctx, v)    // SnapshotView: io.ReaderAt + Size
//	view.ReadAt(buf, 128)
//	r := view.Reader()            // io.ReadSeeker over the same snapshot
//
// Reads go through a client-side page cache with single-flight dedup,
// hedged replica requests and range coalescing; ClientOptions.ReadTuning
// holds the knobs.
//
// Use Dial to connect to a cluster served by cmd/blobseerd over TCP.
package blobseer

import (
	"context"
	"fmt"
	"io"

	"blobseer/internal/client"
	"blobseer/internal/dht"
	"blobseer/internal/obs"
	"blobseer/internal/transport"
	"blobseer/internal/vclock"
	"blobseer/internal/wire"
)

// BlobID uniquely identifies a blob within a cluster.
type BlobID = wire.BlobID

// Version numbers the snapshots of a blob; 0 is the empty snapshot that
// exists from creation.
type Version = wire.Version

// Error helpers re-exported for callers matching failure classes.
var (
	// IsNotFound reports whether err says a blob or page does not exist.
	IsNotFound = wire.IsNotFound
	// IsNotPublished reports whether err says the snapshot version is
	// not yet (or never will be) readable.
	IsNotPublished = wire.IsNotPublished
	// IsOutOfBounds reports whether err says a range exceeds the
	// snapshot size.
	IsOutOfBounds = wire.IsOutOfBounds
)

// Options configures blob creation.
type Options struct {
	// PageSize is the blob's page size in bytes; it must be a power of
	// two. The paper evaluates 64 KiB and 256 KiB pages. Defaults to
	// 64 KiB.
	PageSize uint32
}

// ClientOptions configures Dial.
type ClientOptions struct {
	// VersionManager is the version manager's host:port.
	VersionManager string
	// ProviderManager is the provider manager's host:port.
	ProviderManager string
	// MetadataProviders lists the metadata (DHT) nodes. The list must be
	// identical, including order, on every client of the cluster.
	MetadataProviders []string
	// MetadataReplication is the DHT replication factor (default 1).
	MetadataReplication int
	// PageReplication stores each data page on this many distinct
	// providers (default 1). All clients of a cluster should agree on it.
	PageReplication int
	// ConnsPerHost tunes the connection pool per peer (default 1).
	ConnsPerHost int
	// ReadTuning tunes the read path: page cache size, hedged replica
	// requests, range coalescing and transfer fanout. The zero value
	// means all defaults; each knob disables its mechanism when
	// negative. The struct is passed through to the client unchanged.
	ReadTuning ReadTuning
}

// ReadTuning collects the read-path knobs; see the field docs on
// client.ReadTuning. It is an alias so the same value flows from the
// public API through the client config without copying field by field.
type ReadTuning = client.ReadTuning

// PageCacheStats is the read-path counters' old shape.
//
// Deprecated: read the client's series (Client.WriteMetrics); kept only
// until internal/blast stops naming it.
type PageCacheStats = client.PageCacheStats

// Client is a handle to a BlobSeer cluster, safe for concurrent use by
// any number of goroutines.
type Client struct {
	inner *client.Client
}

// Dial connects to a cluster over TCP.
func Dial(opts ClientOptions) (*Client, error) {
	return newClient(transport.TCP{}, vclock.NewReal(), opts)
}

func newClient(net transport.Network, sched vclock.Scheduler, opts ClientOptions) (*Client, error) {
	if len(opts.MetadataProviders) == 0 {
		return nil, fmt.Errorf("blobseer: no metadata providers listed")
	}
	ring, err := dht.NewRing(opts.MetadataProviders, opts.MetadataReplication)
	if err != nil {
		return nil, err
	}
	inner, err := client.New(client.Config{
		Net:             net,
		Sched:           sched,
		VersionManager:  opts.VersionManager,
		ProviderManager: opts.ProviderManager,
		MetaRing:        ring,
		ConnsPerHost:    opts.ConnsPerHost,
		Read:            opts.ReadTuning,
		PageReplication: opts.PageReplication,
	})
	if err != nil {
		return nil, err
	}
	return &Client{inner: inner}, nil
}

// Close releases the client's connections.
func (c *Client) Close() { c.inner.Close() }

// Create makes a new empty blob (snapshot 0, size 0) and returns a
// handle to it.
func (c *Client) Create(ctx context.Context, opts Options) (*Blob, error) {
	ps := opts.PageSize
	if ps == 0 {
		ps = 64 << 10
	}
	id, err := c.inner.Create(ctx, ps)
	if err != nil {
		return nil, err
	}
	return &Blob{c: c, id: id}, nil
}

// Open returns a handle to an existing blob. It verifies the blob exists.
func (c *Client) Open(ctx context.Context, id BlobID) (*Blob, error) {
	if _, _, err := c.inner.Recent(ctx, id); err != nil {
		return nil, err
	}
	return &Blob{c: c, id: id}, nil
}

// Blob is a handle to one blob. Handles are cheap and stateless; any
// number may exist for the same blob across any number of clients.
type Blob struct {
	c  *Client
	id BlobID
}

// ID returns the blob's cluster-wide identifier.
func (b *Blob) ID() BlobID { return b.id }

// Write replaces len(buf) bytes starting at offset and returns the new
// snapshot's version. The snapshot may publish after Write returns; use
// Sync to wait. Write fails if offset exceeds the previous snapshot's
// size. Concurrent Writes to the same blob are legal and totally ordered
// by the version manager.
func (b *Blob) Write(ctx context.Context, buf []byte, offset uint64) (Version, error) {
	return b.c.inner.Write(ctx, b.id, buf, offset)
}

// Append adds len(buf) bytes at the end of the blob (the offset is
// assigned atomically by the version manager, so concurrent Appends never
// overlap) and returns the new snapshot's version.
func (b *Blob) Append(ctx context.Context, buf []byte) (Version, error) {
	return b.c.inner.Append(ctx, b.id, buf)
}

// Read fills buf with len(buf) bytes of snapshot v starting at offset.
// It fails if v is not published or the range exceeds the snapshot size.
// It is a thin wrapper over the snapshot view returned by At.
func (b *Blob) Read(ctx context.Context, v Version, buf []byte, offset uint64) error {
	return b.c.inner.Read(ctx, b.id, v, buf, offset)
}

// WriteMetrics writes the client's series — its read path's page cache,
// hedging and coalescing counters, its metadata cache's, and its failed
// page reclaims, cumulative over every blob it served — in the
// Prometheus text format blobseerd's /metrics serves.
func (c *Client) WriteMetrics(w io.Writer) error {
	var s obs.Sink
	c.inner.Metrics(&s)
	_, err := s.WriteTo(w)
	return err
}

// Recent returns a recently published version and its size; the version
// is at least as new as any publication that completed before the call.
func (b *Blob) Recent(ctx context.Context) (Version, uint64, error) {
	return b.c.inner.Recent(ctx, b.id)
}

// Size returns the byte size of published snapshot v.
func (b *Blob) Size(ctx context.Context, v Version) (uint64, error) {
	return b.c.inner.Size(ctx, b.id, v)
}

// Sync blocks until snapshot v is published, providing read-your-writes:
// after Sync(v) returns nil, Read(v) succeeds on any client.
func (b *Blob) Sync(ctx context.Context, v Version) error {
	return b.c.inner.Sync(ctx, b.id, v)
}

// Branch virtually duplicates the blob as of published version v: the
// new blob shares every page and metadata node up to v with the original
// (nothing is copied) and evolves independently afterwards.
func (b *Blob) Branch(ctx context.Context, v Version) (*Blob, error) {
	nid, err := b.c.inner.Branch(ctx, b.id, v)
	if err != nil {
		return nil, err
	}
	return &Blob{c: b.c, id: nid}, nil
}

// GCStats summarizes one garbage collection run.
type GCStats = client.GCStats

// Expire marks every snapshot of the blob up to and including upTo as
// expired: permanently unreadable, its exclusively owned pages
// reclaimable by GC. The paper's model keeps every snapshot forever;
// this is the production-scale retention extension. The version manager
// refuses to expire the newest readable snapshot, the branch point any
// live branch rests on, or the base an in-flight update still weaves
// against, and silently clamps to the cluster's keep-last-N policy. The
// returned floor is the first non-expired version.
func (b *Blob) Expire(ctx context.Context, upTo Version) (Version, error) {
	floor, _, err := b.c.inner.ExpireVersions(ctx, b.id, upTo)
	return floor, err
}

// GC reclaims the pages of the blob's expired snapshots: it walks their
// metadata trees, keeps every page the oldest retained snapshot (and
// thus any retained snapshot or branch) still reaches, and deletes the
// rest from the data providers. It is idempotent and safe to run
// concurrently with reads, writes and branches; re-run it after a crash
// or partial failure to finish the sweep.
func (b *Blob) GC(ctx context.Context) (GCStats, error) {
	return b.c.inner.CollectGarbage(ctx, b.id)
}
