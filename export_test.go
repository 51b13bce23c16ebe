package blobseer

import (
	"flag"
	"os"
	"testing"

	"blobseer/internal/bufpool"
	"blobseer/internal/obs"
)

// TestMain runs the package's tests — the end-to-end and streaming
// checksum tests among them — with released rpc frame buffers poisoned,
// so any page byte read after its buffer went back to the pool fails a
// checksum every time, not rarely. Benchmarks measure the unpoisoned
// path.
func TestMain(m *testing.M) {
	flag.Parse()
	if flag.Lookup("test.bench").Value.String() == "" {
		bufpool.PoisonReleased(true)
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

// Series reads one of the embedded cluster's series (see
// cluster.Cluster.Metrics): retention tests watch the GC reclaim pages
// and metadata through store_keys, store_value_bytes and store_log_bytes
// by role.
func (c *Cluster) Series(name string, labels ...string) uint64 {
	return uint64(obs.Value(c.inner, name, labels...))
}
