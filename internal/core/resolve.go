package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"blobseer/internal/wire"
)

// ResolvePublished finds, for each requested aligned range, the version
// whose node covers that exact range in the published snapshot's tree —
// i.e. the highest published version whose update range intersects it.
// This is the read-only part of computing the border node set (§4.2): the
// writer descends the published tree once, batching node fetches level by
// level, and gathers the child-version links for all requested ranges.
//
// A range that lies beyond the data actually written resolves to
// wire.NoVersion (a hole).
func ResolvePublished(ctx context.Context, st NodeStore, published wire.Version,
	publishedSizePages uint64, ranges []Range) (map[Range]wire.Version, error) {

	out := make(map[Range]wire.Version, len(ranges))
	if len(ranges) == 0 {
		return out, nil
	}
	if publishedSizePages == 0 {
		for _, r := range ranges {
			out[r] = wire.NoVersion
		}
		return out, nil
	}
	root := RootID(published, publishedSizePages)

	// The targets still to resolve, sorted by start, wider first. Aligned
	// ranges nest or are disjoint, so the targets under any tree node are
	// one contiguous run of this slice, and the ones equal to the node's
	// own range lead their run.
	targets := make([]Range, 0, len(ranges))
	for _, r := range ranges {
		switch {
		case r == root.Range():
			out[r] = published
		case !root.Range().Contains(r):
			return nil, fmt.Errorf("core: range %v outside published tree %v", r, root)
		default:
			targets = append(targets, r)
		}
	}
	if len(targets) == 0 {
		return out, nil
	}
	slices.SortFunc(targets, func(a, b Range) int {
		return cmp.Or(cmp.Compare(a.Start, b.Start), cmp.Compare(b.Count, a.Count))
	})

	// One level of the descent: each node with the run of targets lying
	// strictly inside it. Two slices alternate between levels; ids is the
	// level's fetch list and nodes its answer.
	type run struct {
		id     NodeID
		lo, hi int // targets[lo:hi]
	}
	level, next := []run{{id: root, lo: 0, hi: len(targets)}}, []run(nil)
	var ids []NodeID
	var nodes []Node
	for len(level) > 0 {
		ids = ids[:0]
		for _, g := range level {
			ids = append(ids, g.id)
		}
		var err error
		if nodes, err = st.GetNodes(ctx, ids, nodes); err != nil {
			return nil, err
		}
		next = next[:0]
		for gi, g := range level {
			n := nodes[gi]
			if n.Leaf {
				return nil, fmt.Errorf("core: descended into leaf %v with pending targets", g.id)
			}
			// Split the run at the midpoint: everything starting before
			// it must end by it (left child), the rest goes right.
			mid := g.id.Offset + g.id.Span/2
			split := g.lo
			for split < g.hi && targets[split].Start < mid {
				if targets[split].End() > mid {
					return nil, fmt.Errorf("core: target %v straddles children of %v", targets[split], g.id)
				}
				split++
			}
			for _, half := range [2]run{
				{id: g.id.Left(n.VL), lo: g.lo, hi: split},
				{id: g.id.Right(n.VR), lo: split, hi: g.hi},
			} {
				if half.id.Version == wire.NoVersion {
					// The hole covers everything below it.
					for _, tgt := range targets[half.lo:half.hi] {
						out[tgt] = wire.NoVersion
					}
					continue
				}
				for half.lo < half.hi && targets[half.lo] == half.id.Range() {
					out[targets[half.lo]] = half.id.Version
					half.lo++
				}
				if half.lo < half.hi {
					next = append(next, half)
				}
			}
		}
		level, next = next, level
	}
	return out, nil
}
