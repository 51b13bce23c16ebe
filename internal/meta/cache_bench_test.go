package meta

import (
	"runtime"
	"strings"
	"testing"

	"blobseer/internal/core"
	"blobseer/internal/wire"
)

// cacheFillInput is what a client caches while it descends a blob's
// trees: nodes keys, every other one a leaf shaped the way
// core.DecodeNode returns it (a fresh one-address slice and a fresh
// address, one of eight providers) and the rest inner nodes.
func cacheFillInput(nodes int) ([]cacheKey, []core.Node) {
	keys := make([]cacheKey, nodes)
	vals := make([]core.Node, nodes)
	for i := range keys {
		v := wire.Version(1 + i/1024)
		if i%2 == 0 {
			keys[i] = cacheKey{Owner: 1, ID: core.NodeID{Version: v, Offset: uint64(i), Span: 1}}
			addr := "127.0.0.1:4040" + string(rune('0'+i/2%8))
			vals[i] = core.Node{Leaf: true, Page: wire.PageID{byte(i), byte(i >> 8), byte(i >> 16)},
				Providers: []string{strings.Clone(addr)}}
		} else {
			keys[i] = cacheKey{Owner: 1, ID: core.NodeID{Version: v, Offset: uint64(i), Span: 2}}
			vals[i] = core.Node{VL: v, VR: v - 1}
		}
	}
	return keys, vals
}

// cacheFillCost fills NewCache(nodes) with cacheFillInput(nodes) and
// reports, per node, the heap the fill allocated and the heap the full
// cache holds once its input is gone. It uses nothing of the cache but
// NewCache, put and cacheKey, so it measures any version of it.
func cacheFillCost(nodes int) (fill, rest float64) {
	var base, before, after, atRest runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&base)
	c := func() *Cache {
		keys, vals := cacheFillInput(nodes)
		runtime.GC()
		runtime.ReadMemStats(&before)
		c := NewCache(nodes)
		for i := range keys {
			c.put(keys[i], vals[i])
		}
		runtime.ReadMemStats(&after)
		return c
	}()
	runtime.GC()
	runtime.ReadMemStats(&atRest)
	runtime.KeepAlive(c)
	n := float64(nodes)
	return float64(after.TotalAlloc-before.TotalAlloc) / n, (float64(atRest.HeapAlloc) - float64(base.HeapAlloc)) / n
}

// BenchmarkMetaCacheFill reports what filling a client's default
// 16 384-node metadata cache costs per node: fill-B/node allocated on
// the way, rest-B/node held once it is full.
func BenchmarkMetaCacheFill(b *testing.B) {
	var fill, rest float64
	for i := 0; i < b.N; i++ {
		fill, rest = cacheFillCost(16384)
	}
	b.ReportMetric(fill, "fill-B/node")
	b.ReportMetric(rest, "rest-B/node")
}
