package core

import (
	"context"
	"fmt"
	"testing"

	"blobseer/internal/wire"
)

// BenchmarkTreeBuild measures BUILD_META planning for updates of various
// sizes against a 64k-page blob — the A3 ablation's fast path. Weaving
// (not rebuilding) means cost scales with the update, not the blob.
func BenchmarkTreeBuild(b *testing.B) {
	gen := wire.NewPageIDGen()
	for _, pages := range []uint64{1, 16, 256} {
		b.Run(fmt.Sprintf("updatePages=%d", pages), func(b *testing.B) {
			pws := make([]PageWrite, pages)
			for i := range pws {
				pws[i] = PageWrite{Page: gen.Next(), Providers: []string{"p"}}
			}
			u := Update{
				Version:            2,
				Pages:              Range{Start: 4096, Count: pages},
				NewSizePages:       65536,
				Published:          1,
				PublishedSizePages: 65536,
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				plan, err := PlanUpdate(u, pws)
				if err != nil {
					b.Fatal(err)
				}
				_ = plan.NeedPublished()
				plan.Release()
			}
		})
	}
}

// BenchmarkReadPlan measures READ_META against trees of growing depth.
func BenchmarkReadPlan(b *testing.B) {
	for _, blobPages := range []uint64{256, 4096, 65536} {
		b.Run(fmt.Sprintf("blobPages=%d", blobPages), func(b *testing.B) {
			sim := newBlobSimB(b)
			sim.update(0, blobPages)
			root := RootID(1, blobPages)
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ReadPlan(ctx, sim.st, root, Range{Start: blobPages / 2, Count: 64}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBorderResolution measures the writer-side border descent —
// plan, resolve against the published tree, finalize: the §4.2 hot path.
// One case weaves a 32-page update around ten in-flight updates; the
// other is the small-update shape where the descent is the whole cost,
// one page of a 16 384-page blob with one border per level.
func BenchmarkBorderResolution(b *testing.B) {
	for _, tc := range []struct {
		name               string
		blobPages          uint64
		inFlight           int
		start, updatePages uint64
	}{
		{"32pages@4096/inflight=10", 4096, 10, 2048, 32},
		{"1page@16384", 16384, 0, 5000, 1},
	} {
		b.Run(tc.name, func(b *testing.B) {
			sim := newBlobSimB(b)
			sim.update(0, tc.blobPages)
			for i := 0; i < tc.inFlight; i++ {
				sim.assign(uint64(i*128), 64) // assigned, never published
			}
			target, targetPw := sim.assign(tc.start, tc.updatePages)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				plan, err := PlanUpdate(target, targetPw)
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := plan.Resolve(context.Background(), sim.st); err != nil {
					b.Fatal(err)
				}
				plan.Release()
			}
		})
	}
}

// newBlobSimB adapts the test harness for benchmarks.
func newBlobSimB(b *testing.B) *blobSim {
	return &blobSim{
		t:       b,
		st:      newFakeStore(),
		gen:     wire.NewPageIDGen(),
		model:   []modelSnapshot{{size: 0, pages: nil}},
		nextVer: 1,
	}
}
