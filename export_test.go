package blobseer

import (
	"flag"
	"os"
	"testing"

	"blobseer/internal/rpc"
)

// TestMain runs the package's tests — the end-to-end and streaming
// checksum tests among them — with released rpc frame buffers poisoned,
// so any page byte read after its buffer went back to the pool fails a
// checksum every time, not rarely. Benchmarks measure the unpoisoned
// path.
func TestMain(m *testing.M) {
	flag.Parse()
	if flag.Lookup("test.bench").Value.String() == "" {
		rpc.PoisonReleasedFrames()
	}
	os.Exit(m.Run())
}

// Kill stops one service of the embedded cluster, named as
// cluster.Cluster.Kill names it ("data", "metadata", ...): failure-injection
// tests kill a data provider or a metadata node to verify the replication
// extensions end to end. Test-only.
func (c *Cluster) Kill(role string, i int) error { return c.inner.Kill(role, i) }

// DataProviderCount returns the number of data providers in the cluster.
func (c *Cluster) DataProviderCount() int { return len(c.inner.Providers) }

// MetaNodeCount returns the number of metadata nodes in the cluster.
func (c *Cluster) MetaNodeCount() int { return len(c.inner.MetaNodes) }

// ProviderPages sums live page counts over the cluster's data providers,
// so retention tests can watch the GC actually reclaim storage.
func (c *Cluster) ProviderPages() (pages, bytes uint64) {
	for _, p := range c.inner.Providers {
		n, b := p.Store().Stats()
		pages += n
		bytes += b
	}
	return pages, bytes
}

// MetaStats sums key and value-byte counts over the cluster's metadata
// nodes, so retention tests can watch the GC reclaim metadata too.
func (c *Cluster) MetaStats() (keys, bytes uint64) { return c.inner.MetaStats() }

// MetaLogBytes sums the on-disk metadata log footprint over the
// cluster's durable metadata nodes (0 for an in-memory cluster).
func (c *Cluster) MetaLogBytes() int64 { return c.inner.MetaLogBytes() }
