package client_test

import (
	"bytes"
	"fmt"
	"testing"

	"blobseer/internal/client"
	"blobseer/internal/cluster"
	"blobseer/internal/simnet"
	"blobseer/internal/vclock"
)

// BenchmarkCachedScanChurn scans a blob 8 times the size of a small page
// cache in 1 MiB reads, the shape of a cold scan past a full cache: every
// page a read inserts evicts one an earlier read fetched. One op is one
// 1 MiB read of 16 64 KiB pages through the whole client, a simulated
// cluster and its network, so B/op and allocs/op are the client layer's
// row for the scan_cold workload — including simnet's own copy of every
// segment it carries, which no real transport makes.
func BenchmarkCachedScanChurn(b *testing.B) {
	const ps, chunk, cacheBytes = 64 << 10, 1 << 20, 2 << 20
	const size = 8 * cacheBytes
	cfg := cluster.Config{
		DataProviders: 4,
		MetaProviders: 4,
		ClientRead:    client.ReadTuning{PageCacheBytes: cacheBytes},
	}
	runSimCluster(b, cfg, func(_ *vclock.Virtual, _ *simnet.Net, cl *cluster.Cluster) error {
		ctx := ctxb()
		w, err := cl.NewClient("writer")
		if err != nil {
			return err
		}
		id, err := w.Create(ctx, ps)
		if err != nil {
			return err
		}
		data := randomBytes(3, size)
		v, err := w.Append(ctx, id, data)
		if err != nil {
			return err
		}
		if err := w.Sync(ctx, id, v); err != nil {
			return err
		}
		c, err := cl.NewClient("reader")
		if err != nil {
			return err
		}
		buf := make([]byte, chunk)
		b.ReportAllocs()
		b.SetBytes(chunk)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			off := i % (size / chunk) * chunk
			if err := c.Read(ctx, id, v, buf, uint64(off)); err != nil {
				return err
			}
			if !bytes.Equal(buf, data[off:off+chunk]) {
				return fmt.Errorf("read at %d: bytes mismatch", off)
			}
		}
		b.StopTimer()
		return nil
	})
}

// BenchmarkColdClientScan is the scan_cold workload's shape from the
// start: one op dials a fresh client, whose empty 2 MiB page cache is
// what a reader starts with, and scans a blob 4 times that size in
// 1 MiB reads. Unlike BenchmarkCachedScanChurn it pays for the cache
// filling: pages a scan reads once fill probation's quarter of the
// budget and no more, and every later page decodes into the buffer
// probation just evicted.
func BenchmarkColdClientScan(b *testing.B) {
	const ps, chunk, cacheBytes = 64 << 10, 1 << 20, 2 << 20
	const size = 4 * cacheBytes
	cfg := cluster.Config{
		DataProviders: 4,
		MetaProviders: 4,
		ClientRead:    client.ReadTuning{PageCacheBytes: cacheBytes},
	}
	runSimCluster(b, cfg, func(_ *vclock.Virtual, _ *simnet.Net, cl *cluster.Cluster) error {
		ctx := ctxb()
		w, err := cl.NewClient("writer")
		if err != nil {
			return err
		}
		id, err := w.Create(ctx, ps)
		if err != nil {
			return err
		}
		data := randomBytes(5, size)
		v, err := w.Append(ctx, id, data)
		if err != nil {
			return err
		}
		if err := w.Sync(ctx, id, v); err != nil {
			return err
		}
		buf := make([]byte, chunk)
		b.ReportAllocs()
		b.SetBytes(size)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c, err := cl.NewClient("reader")
			if err != nil {
				return err
			}
			for off := 0; off < size; off += chunk {
				if err := c.Read(ctx, id, v, buf, uint64(off)); err != nil {
					return err
				}
				if !bytes.Equal(buf, data[off:off+chunk]) {
					return fmt.Errorf("read at %d: bytes mismatch", off)
				}
			}
			c.Close()
		}
		b.StopTimer()
		return nil
	})
}
