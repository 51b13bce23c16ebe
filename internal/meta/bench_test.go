package meta

import (
	"context"
	"testing"

	"blobseer/internal/core"
	"blobseer/internal/wire"
)

// benchPath is the node set of a 1-page update to a 16 384-page blob:
// the new leaf and the 14 inner nodes above it, the weave small_rw does
// on every write.
func benchPath(v wire.Version) ([]core.NodeID, []core.Node) {
	const page, blobPages = 5000, 16384
	ids := []core.NodeID{{Version: v, Offset: page, Span: 1}}
	nodes := []core.Node{{Leaf: true, Page: wire.PageID{byte(v), byte(v >> 8)}, Providers: []string{"127.0.0.1:40401"}}}
	for span := uint64(2); span <= blobPages; span *= 2 {
		ids = append(ids, core.NodeID{Version: v, Offset: page - page%span, Span: span})
		nodes = append(nodes, core.Node{VL: v, VR: v - 1})
	}
	return ids, nodes
}

// BenchmarkMetaPutNodes is the weave's store step: 15 fresh nodes keyed,
// encoded, spread over a 4-node in-process DHT and cached.
func BenchmarkMetaPutNodes(b *testing.B) {
	st := NewStore(newDHT(b, 4), soleLineage(1), NewCache(16384))
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ids, nodes := benchPath(wire.Version(i + 1))
		if err := st.PutNodes(ctx, ids, nodes); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMetaGetNodes walks one such path the way a descent does, one
// GetNodes per level. warm: every level is a cache hit. cold: the cache
// is far smaller than the paths rotated through it, so every level is a
// miss, a DHT round trip and an insertion that evicts.
func BenchmarkMetaGetNodes(b *testing.B) {
	const paths = 64
	for _, tc := range []struct {
		name  string
		cache int
	}{{"warm", 16384}, {"cold", 4 * 15}} {
		b.Run(tc.name, func(b *testing.B) {
			d := newDHT(b, 4)
			ctx := context.Background()
			all := make([][]core.NodeID, paths)
			for v := range all {
				ids, nodes := benchPath(wire.Version(v + 1))
				if err := NewStore(d, soleLineage(1), nil).PutNodes(ctx, ids, nodes); err != nil {
					b.Fatal(err)
				}
				all[v] = ids
			}
			st := NewStore(d, soleLineage(1), NewCache(tc.cache))
			walk := func(ids []core.NodeID) {
				for level := len(ids) - 1; level >= 0; level-- {
					if _, err := st.GetNodes(ctx, ids[level:level+1]); err != nil {
						b.Fatal(err)
					}
				}
			}
			for _, ids := range all {
				walk(ids)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				walk(all[i%paths])
			}
		})
	}
}
