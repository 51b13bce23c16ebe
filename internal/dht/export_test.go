package dht

import (
	"context"
	"flag"
	"os"
	"testing"

	"blobseer/internal/bufpool"
)

// TestMain runs the package's tests with released rpc frame buffers
// and recycled objects poisoned: a decoded DHT_MULTI_PUT's keys and
// values alias their frame, so a node that kept a sub-slice instead of
// a copy would serve garbage every time, not rarely, and so would a
// MULTI_GET answer read after its hand-back. Benchmarks measure the
// unpoisoned path.
func TestMain(m *testing.M) {
	flag.Parse()
	if flag.Lookup("test.bench").Value.String() == "" {
		bufpool.PoisonReleased(true)
	}
	os.Exit(m.Run())
}

// Put and Get are the one-pair calls of the batch API, for tests that
// store or look up a single pair.
func (c *Client) Put(ctx context.Context, key, value []byte) error {
	return c.MultiPut(ctx, [][]byte{key}, [][]byte{value})
}

func (c *Client) Get(ctx context.Context, key []byte) ([]byte, bool, error) {
	values, found, err := c.MultiGet(ctx, [][]byte{key}, nil, nil, nil)
	if err != nil {
		return nil, false, err
	}
	return values[0], found[0], nil
}

// Nodes returns the replica set for key: the primary followed by the
// next replicas-1 nodes on the ring.
func (r *Ring) Nodes(key []byte) []string {
	out, p := make([]string, r.replicas), r.primary(key)
	for i := range out {
		out[i] = r.addrs[r.at(p, i)]
	}
	return out
}

// Primary returns the node that owns key.
func (r *Ring) Primary(key []byte) string { return r.addrs[r.primary(key)] }
