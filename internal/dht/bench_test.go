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
				keys[j] = make([]byte, 33)
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
			before := r.node.log.Stats()
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
			after := r.node.log.Stats()
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
