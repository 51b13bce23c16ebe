package blobseer

import (
	"time"

	"blobseer/internal/cluster"
	"blobseer/internal/dht"
	"blobseer/internal/pagestore"
	"blobseer/internal/transport"
	"blobseer/internal/vclock"
)

// ClusterOptions sizes an embedded cluster.
type ClusterOptions struct {
	// DataProviders is the number of page storage services (default 4).
	DataProviders int
	// MetadataProviders is the number of DHT nodes (default 4).
	MetadataProviders int
	// MetadataReplication is the DHT replication factor (default 1).
	MetadataReplication int
	// PageReplication stores each data page on this many distinct
	// providers (default 1, the paper's single-copy layout). With R > 1,
	// reads spread across replicas and fail over when a provider dies, at
	// the cost of R× write traffic. Replication is the extension the paper
	// names as future work (§3.2).
	PageReplication int
	// DiskDir, when non-empty, makes the cluster durable: each data
	// provider stores pages in a crash-safe segmented page log under
	// this directory instead of RAM (provider-<i>.log), each metadata
	// node keeps its tree nodes in a segmented pair log there
	// (meta-<i>.log), and the version manager keeps a segmented
	// write-ahead log of version state there too
	// (version-manager.wal).
	DiskDir string
	// WALSegmentBytes rolls the version manager's WAL into a fresh
	// segment file once the active one exceeds this many bytes
	// (0 = 64 MB default). Only meaningful with DiskDir.
	WALSegmentBytes int64
	// CheckpointEvery, when positive, snapshots the version state and
	// compacts the WAL after that many logged events, bounding restart
	// replay by the interval; Checkpoint forces one on demand. Only
	// meaningful with DiskDir.
	CheckpointEvery int
	// DeadWriterTimeout aborts updates of crashed writers (0 disables).
	DeadWriterTimeout time.Duration
	// RetainVersions is the keep-last-N retention policy: Blob.Expire
	// requests are clamped so at least this many of a blob's newest
	// published versions stay readable (default 1 — only the newest is
	// guaranteed).
	RetainVersions int

	// PageStore tunes each data provider's durable page store and
	// MetaLog each metadata node's pair log: segment size, index-snapshot
	// interval, compaction threshold, fsync and (pages only) group
	// commit. Only meaningful with DiskDir; the zero values are 64 MB
	// segments, no automatic snapshots or compaction, no fsync.
	PageStore PageStoreOptions
	MetaLog   MetaLogOptions
}

// PageStoreOptions and MetaLogOptions are aliases so the same values
// flow from the public API to the stores untouched; see the field docs
// on seglog.KVOptions and dht.LogOptions.
type (
	PageStoreOptions = pagestore.DiskOptions
	MetaLogOptions   = dht.LogOptions
)

// Cluster is an embedded single-process BlobSeer deployment: every
// service runs in this process over an in-memory transport. It is the
// easiest way to use the library, and every Example function runs one.
type Cluster struct {
	inner *cluster.Cluster
	net   *transport.Inproc
	sched vclock.Scheduler
}

// StartCluster boots an embedded cluster.
func StartCluster(opts ClusterOptions) (*Cluster, error) {
	net := transport.NewInproc()
	sched := vclock.NewReal()
	cfg := cluster.Config{
		DataProviders:     opts.DataProviders,
		MetaProviders:     opts.MetadataProviders,
		Replication:       opts.MetadataReplication,
		PageReplication:   opts.PageReplication,
		DeadWriterTimeout: opts.DeadWriterTimeout,
		RetainVersions:    opts.RetainVersions,
	}
	if opts.DiskDir != "" {
		dir := opts.DiskDir
		cfg.VersionWALPath = dir + "/version-manager.wal"
		cfg.VersionWALSegmentBytes = opts.WALSegmentBytes
		cfg.VersionCheckpointEvery = opts.CheckpointEvery
		cfg.MetaLogDir = dir
		cfg.MetaLog = opts.MetaLog
		cfg.PageDir = dir
		cfg.PageStore = opts.PageStore
	}
	inner, err := cluster.StartInproc(net, sched, cfg)
	if err != nil {
		net.Close()
		return nil, err
	}
	return &Cluster{inner: inner, net: net, sched: sched}, nil
}

// Client returns a new client connected to the embedded cluster.
func (c *Cluster) Client() (*Client, error) {
	inner, err := c.inner.NewClient("")
	if err != nil {
		return nil, err
	}
	return &Client{inner: inner}, nil
}

// Checkpoint forces the version manager to serialize its full state
// into a snapshot and compact the write-ahead log, so the next restart
// replays only events logged after this call. It is a no-op for a
// non-durable cluster; automatic checkpoints (CheckpointEvery) make
// calling it optional.
func (c *Cluster) Checkpoint() error {
	return c.inner.VM.Checkpoint()
}

// CompactMetadata forces every metadata node to rewrite pair-log
// segments dominated by deleted (garbage-collected) tree nodes — the
// active segment included — shrinking the on-disk metadata footprint
// after Blob.GC. It is a no-op for a non-durable
// cluster; automatic compaction (MetaLog.CompactRatio) makes calling it
// optional.
func (c *Cluster) CompactMetadata() error {
	return c.inner.CompactMetadata()
}

// Close stops every service in the cluster.
func (c *Cluster) Close() {
	c.inner.Close()
	c.net.Close()
}
