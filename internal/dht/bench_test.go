package dht

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"testing"
)

// writeSyscalls reads the process's cumulative write-syscall count from
// /proc/self/io (the in-process transport makes none, so over a durable
// node every one is a log write); ok is false where there is no procfs.
func writeSyscalls() (n float64, ok bool) {
	data, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, false
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if _, err := fmt.Sscanf(string(line), "syscw: %f", &n); err == nil {
			return n, true
		}
	}
	return 0, false
}

// BenchmarkDurableNodeMultiPut is one MULTI_PUT of 10 fresh inner-node
// sized pairs to a durable node, acknowledged: what a metadata provider
// pays per request of a weave, with the log's fsync on and off. Besides
// time and heap it reports the request's fsyncs and write syscalls.
func BenchmarkDurableNodeMultiPut(b *testing.B) {
	for _, tc := range []struct {
		name string
		sync bool
	}{{"sync", true}, {"nosync", false}} {
		b.Run(tc.name, func(b *testing.B) {
			r := newDurableNodeRigOpts(b, LogOptions{Sync: tc.sync})
			c := r.client()
			ctx := context.Background()
			const n = 10
			keys, values := make([][]byte, n), make([][]byte, n)
			for j := range keys {
				keys[j] = make([]byte, KeyLen)
				values[j] = bytes.Repeat([]byte{byte(j)}, 17)
			}
			fresh := func(i int) {
				for j := range keys {
					copy(keys[j], fmt.Sprintf("n%015d/%015d", i, j))
				}
			}
			fresh(-1)
			if err := c.MultiPut(ctx, keys, values); err != nil {
				b.Fatal(err)
			}
			before := stats(r.node.log)
			writes0, procfs := writeSyscalls()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fresh(i)
				if err := c.MultiPut(ctx, keys, values); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			after := stats(r.node.log)
			if got := after.Appends - before.Appends; got != uint64(n*b.N) {
				b.Fatalf("%d records logged, want %d", got, n*b.N)
			}
			b.ReportMetric(float64(after.Syncs-before.Syncs)/float64(b.N), "fsyncs/op")
			if writes1, _ := writeSyscalls(); procfs {
				b.ReportMetric((writes1-writes0)/float64(b.N), "writes/op")
			}
		})
	}
}

// BenchmarkNodeMultiGet is one MULTI_GET of 64 stored inner-node sized
// pairs, answered: what a metadata provider pays per request of a tree
// descent or a GC walk, on either engine. B/op and allocs/op are the
// same on both up to the buffer Disk borrows for the values, which a
// collector cycle makes it allocate afresh.
func BenchmarkNodeMultiGet(b *testing.B) {
	const n = 64
	keys, values := make([][]byte, n), make([][]byte, n)
	for j := range keys {
		keys[j] = nkey(fmt.Sprintf("n%015d/%015d", 7, j))
		values[j] = bytes.Repeat([]byte{byte(j)}, 17)
	}
	run := func(b *testing.B, c *Client) {
		ctx := context.Background()
		if err := c.MultiPut(ctx, keys, values); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, found, err := c.MultiGet(ctx, keys)
			if err != nil || !found[i%n] {
				b.Fatalf("found %v, %v", found[i%n], err)
			}
		}
	}
	b.Run("Mem", func(b *testing.B) {
		c, _ := newCluster(b, 1, 1)
		run(b, c)
	})
	b.Run("Disk", func(b *testing.B) { run(b, newDurableNodeRig(b).client()) })
}

// BenchmarkDurableNodeReopen is the restart of a durable node holding
// 10^5 pairs, to the point where it serves: a record-by-record rescan
// of the log, or the load of an index snapshot. Either way no value is
// read.
func BenchmarkDurableNodeReopen(b *testing.B) {
	for _, snapshot := range []bool{false, true} {
		name := "rescan"
		if snapshot {
			name = "snapshot"
		}
		b.Run(name, func(b *testing.B) {
			r := newDurableNodeRig(b)
			c := r.client()
			ctx := context.Background()
			const total, batch = 100_000, 1000
			keys, values := make([][]byte, batch), make([][]byte, batch)
			for i := 0; i < total; i += batch {
				for j := range keys {
					keys[j] = nkey(fmt.Sprintf("n%015d/%015d", i, j))
					values[j] = bytes.Repeat([]byte{byte(j)}, 17)
				}
				if err := c.MultiPut(ctx, keys, values); err != nil {
					b.Fatal(err)
				}
			}
			if snapshot {
				if err := r.node.log.Snapshot(); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.restart()
			}
			b.StopTimer()
			if k, _ := stored(r.node); k != total {
				b.Fatalf("%d keys after the reopen, want %d", k, total)
			}
			got, found, err := r.client().MultiGet(ctx, keys[:1])
			if err != nil || !found[0] || !bytes.Equal(got[0], values[0]) {
				b.Fatalf("a pair after the reopen: %x %v %v", got[0], found[0], err)
			}
		})
	}
}
