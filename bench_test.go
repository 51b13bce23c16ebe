package blobseer_test

import (
	"context"
	"fmt"
	"testing"

	"blobseer"
)

// payload returns n bytes to write; what they hold moves no benchmark.
func payload(n int) []byte { return make([]byte, n) }

// benchCluster stands up an embedded cluster for end-to-end benchmarks.
func benchCluster(b *testing.B) (*blobseer.Client, func()) {
	b.Helper()
	cl, err := blobseer.StartCluster(blobseer.ClusterOptions{
		DataProviders:     8,
		MetadataProviders: 8,
	})
	if err != nil {
		b.Fatal(err)
	}
	c, err := cl.Client()
	if err != nil {
		b.Fatal(err)
	}
	return c, func() {
		c.Close()
		cl.Close()
	}
}

// BenchmarkAppend measures end-to-end APPEND latency/throughput on the
// embedded cluster (pages 64 KiB, chunks of 4 pages).
func BenchmarkAppend(b *testing.B) {
	c, done := benchCluster(b)
	defer done()
	ctx := context.Background()
	blob, err := c.Create(ctx, blobseer.Options{PageSize: 64 << 10})
	if err != nil {
		b.Fatal(err)
	}
	chunk := payload(256 << 10)
	b.SetBytes(int64(len(chunk)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := blob.Append(ctx, chunk); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriteAligned measures the paper's fully parallel write path.
func BenchmarkWriteAligned(b *testing.B) {
	c, done := benchCluster(b)
	defer done()
	ctx := context.Background()
	blob, err := c.Create(ctx, blobseer.Options{PageSize: 64 << 10})
	if err != nil {
		b.Fatal(err)
	}
	chunk := payload(256 << 10)
	if _, err := blob.Append(ctx, chunk); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(chunk)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := blob.Write(ctx, chunk, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRead measures end-to-end READ throughput of a published
// snapshot (cold buffer, warm metadata cache).
func BenchmarkRead(b *testing.B) {
	c, done := benchCluster(b)
	defer done()
	ctx := context.Background()
	blob, err := c.Create(ctx, blobseer.Options{PageSize: 64 << 10})
	if err != nil {
		b.Fatal(err)
	}
	data := payload(4 << 20)
	v, err := blob.Append(ctx, data)
	if err != nil {
		b.Fatal(err)
	}
	if err := blob.Sync(ctx, v); err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 1<<20)
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := uint64(i%4) << 20
		if err := blob.Read(ctx, v, buf, off); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBranch measures the cost of the BRANCH primitive, which the
// paper requires to be cheap: O(1) metadata, no data movement.
func BenchmarkBranch(b *testing.B) {
	c, done := benchCluster(b)
	defer done()
	ctx := context.Background()
	blob, err := c.Create(ctx, blobseer.Options{PageSize: 64 << 10})
	if err != nil {
		b.Fatal(err)
	}
	v, err := blob.Append(ctx, payload(1<<20))
	if err != nil {
		b.Fatal(err)
	}
	if err := blob.Sync(ctx, v); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := blob.Branch(ctx, v); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConcurrentAppenders measures aggregate append throughput under
// writer concurrency — the paper's headline property (§4.2).
func BenchmarkConcurrentAppenders(b *testing.B) {
	for _, writers := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("writers=%d", writers), func(b *testing.B) {
			c, done := benchCluster(b)
			defer done()
			ctx := context.Background()
			blob, err := c.Create(ctx, blobseer.Options{PageSize: 64 << 10})
			if err != nil {
				b.Fatal(err)
			}
			chunk := payload(128 << 10)
			b.SetBytes(int64(len(chunk)))
			b.ResetTimer()
			b.SetParallelism(writers)
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if _, err := blob.Append(ctx, chunk); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// BenchmarkReplicatedAppend measures the write cost of the replication
// extension on the in-process transport. Here extra copies are memory
// copies, so the slowdown is small; the real 1/R bandwidth cost appears
// on the simulated network (internal/cluster's BenchmarkSimReplication),
// where the writer's uplink carries R copies of every page.
func BenchmarkReplicatedAppend(b *testing.B) {
	for _, r := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("replicas=%d", r), func(b *testing.B) {
			cl, err := blobseer.StartCluster(blobseer.ClusterOptions{
				DataProviders:     8,
				MetadataProviders: 8,
				PageReplication:   r,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer cl.Close()
			c, err := cl.Client()
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			ctx := context.Background()
			blob, err := c.Create(ctx, blobseer.Options{PageSize: 64 << 10})
			if err != nil {
				b.Fatal(err)
			}
			chunk := payload(256 << 10)
			b.SetBytes(int64(len(chunk)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := blob.Append(ctx, chunk); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSnapshotReader measures the streaming read adapter against the
// direct ranged Read path it wraps.
func BenchmarkSnapshotReader(b *testing.B) {
	c, done := benchCluster(b)
	defer done()
	ctx := context.Background()
	blob, err := c.Create(ctx, blobseer.Options{PageSize: 64 << 10})
	if err != nil {
		b.Fatal(err)
	}
	total := 4 << 20 // 4 MiB blob
	v, err := blob.Append(ctx, payload(total))
	if err != nil {
		b.Fatal(err)
	}
	if err := blob.Sync(ctx, v); err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 256<<10)
	b.SetBytes(int64(total))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := blob.NewReader(ctx, v)
		if err != nil {
			b.Fatal(err)
		}
		for {
			_, err := r.Read(buf)
			if err != nil {
				break
			}
		}
	}
}

// BenchmarkDurableAppend measures the cost of full durability (page logs,
// metadata pair logs, version WAL) relative to the in-memory cluster.
func BenchmarkDurableAppend(b *testing.B) {
	cl, err := blobseer.StartCluster(blobseer.ClusterOptions{
		DataProviders:     8,
		MetadataProviders: 8,
		DiskDir:           b.TempDir(),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	c, err := cl.Client()
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	blob, err := c.Create(ctx, blobseer.Options{PageSize: 64 << 10})
	if err != nil {
		b.Fatal(err)
	}
	chunk := payload(256 << 10)
	b.SetBytes(int64(len(chunk)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := blob.Append(ctx, chunk); err != nil {
			b.Fatal(err)
		}
	}
}
