package dht

import (
	"blobseer/internal/rpc"
	"blobseer/internal/seglog"
	"blobseer/internal/transport"
	"blobseer/internal/vclock"
)

// Durable metadata nodes persist every pair to a seglog.KV and reload
// it on start, so the segment trees survive a restart of the whole
// cluster (extension — the paper's metadata lived in RAM and node
// volatility was future work). The node serves reads from RAM and never
// reads its log after the reload; layout, recovery, snapshots and
// compaction are the KV's (see internal/seglog/kv.go).
//
// Durability contract: a request is acknowledged after it is logged —
// all the records of one PUT, MULTI_PUT or DELETE in one batch, one
// write and at most one fsync — and the shard lock is not held across
// that commit, so the RAM state changes first: a pair is visible before
// it is logged, a deleted one gone before its tombstone is. Nobody can
// observe the difference. A tree node is reachable only from a root
// whose writer was acknowledged, and a writer is acknowledged only
// after every node under that root is logged; a key is deleted only
// once no retained root reaches it. A failed commit withdraws what the
// request had made visible (see Node.putBatch). With Sync on, logged
// means on disk. With Sync off, acknowledged records in the active
// segment may be lost by a crash — but never by a clean shutdown and
// never in a way that prevents reopening, because the layout below
// seals segments with an fsync.

// metaLayout is the metadata log's instantiation of the KV: its file
// magics, uint32-length-prefixed keys, and an fsync of every segment
// (and the directory) at seal and at Close even with Sync off.
var metaLayout = &seglog.KVLayout{
	Format: seglog.Format{
		Name:      "dht",
		RecMagic:  0xD47A5EE5,
		SegMagic:  0xD47A5E60,
		SegFormat: 1,
		SnapMagic: 0xD47A55A9,
	},
	SealSync: true,
}

// LogOptions tunes a durable node's metadata log. The zero value is
// unsynced appends, 64 MB segments, no automatic snapshots or
// compaction. Appends always group-commit.
type LogOptions struct {
	// Sync forces records to disk before a put or delete is
	// acknowledged: one fsync per request, shared with whatever else
	// commits alongside. Slower, but a crash loses at most in-flight
	// pairs instead of the OS write-back window.
	Sync bool
	// SegmentBytes rolls the log into a fresh segment file once the
	// active one exceeds this many bytes (default 64 MB). Compaction
	// rewrites whole sealed segments, so smaller segments reclaim at a
	// finer grain for more files.
	SegmentBytes int64
	// SnapshotEvery, when positive, writes an index snapshot
	// automatically after that many appended records, bounding reopen
	// replay by the interval. Zero disables automatic snapshots.
	SnapshotEvery int
	// CompactRatio, when positive, makes the background compactor
	// rewrite any sealed segment whose live-byte ratio falls below this
	// threshold (0 < ratio < 1), dropping records of deleted pairs.
	// Zero disables automatic compaction; CompactLog remains available
	// on demand.
	CompactRatio float64
}

// ServeDurableNode starts a metadata provider whose pairs are persisted
// to a segmented log rooted at path and reloaded on start.
func ServeDurableNode(ln transport.Listener, sched vclock.Scheduler, path string, opts LogOptions) (*Node, error) {
	log, err := seglog.OpenKV(path, metaLayout, seglog.KVOptions{
		Sync:          opts.Sync,
		SegmentBytes:  opts.SegmentBytes,
		SnapshotEvery: opts.SnapshotEvery,
		CompactRatio:  opts.CompactRatio,
	})
	if err != nil {
		return nil, err
	}
	n := newNode(log)
	if err := log.Range(func(key string, value []byte) error {
		s := n.shard([]byte(key))
		s.m[key] = value
		s.bytes += uint64(len(value))
		return nil
	}); err != nil {
		log.Close()
		return nil, err
	}
	n.srv = rpc.Serve(ln, sched, n.mux())
	return n, nil
}
