package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"blobseer/internal/bufpool"
	"blobseer/internal/wire"
)

// ResolvePublished finds, for each requested aligned range, the version
// whose node covers that exact range in the published snapshot's tree —
// i.e. the highest published version whose update range intersects it —
// and files it in out under the range. This is the read-only part of
// computing the border node set (§4.2): the writer descends the
// published tree once, batching node fetches level by level, and
// gathers the child-version links for all requested ranges. out is the
// caller's, so a writer reuses one map across its updates (Plan.Resolve
// does); ranges is only read. What a descent needs besides is recycled
// from one call to the next.
//
// A range that lies beyond the data actually written resolves to
// wire.NoVersion (a hole).
func ResolvePublished(ctx context.Context, st NodeStore, published wire.Version,
	publishedSizePages uint64, ranges []Range, out map[Range]wire.Version) error {

	if len(ranges) == 0 {
		return nil
	}
	if publishedSizePages == 0 {
		for _, r := range ranges {
			out[r] = wire.NoVersion
		}
		return nil
	}
	root := RootID(published, publishedSizePages)

	d := descents.Get()
	defer descents.Put(d)
	// The targets still to resolve, sorted by start, wider first. Aligned
	// ranges nest or are disjoint, so the targets under any tree node are
	// one contiguous run of this slice, and the ones equal to the node's
	// own range lead their run.
	targets := d.targets[:0]
	for _, r := range ranges {
		switch {
		case r == root.Range():
			out[r] = published
		case !root.Range().Contains(r):
			return fmt.Errorf("core: range %v outside published tree %v", r, root)
		default:
			targets = append(targets, r)
		}
	}
	d.targets = targets
	if len(targets) == 0 {
		return nil
	}
	slices.SortFunc(targets, func(a, b Range) int {
		return cmp.Or(cmp.Compare(a.Start, b.Start), cmp.Compare(b.Count, a.Count))
	})

	// One level of the descent: each node with the run of targets lying
	// strictly inside it. Two slices alternate between levels; ids is the
	// level's fetch list and nodes its answer.
	d.level = append(d.level, run{id: root, lo: 0, hi: len(targets)})
	for len(d.level) > 0 {
		d.ids = d.ids[:0]
		for _, g := range d.level {
			d.ids = append(d.ids, g.id)
		}
		var err error
		if d.nodes, err = st.GetNodes(ctx, d.ids, d.nodes); err != nil {
			return err
		}
		d.next = d.next[:0]
		for gi, g := range d.level {
			n := d.nodes[gi]
			if n.Leaf {
				return fmt.Errorf("core: descended into leaf %v with pending targets", g.id)
			}
			// Split the run at the midpoint: everything starting before
			// it must end by it (left child), the rest goes right.
			mid := g.id.Offset + g.id.Span/2
			split := g.lo
			for split < g.hi && targets[split].Start < mid {
				if targets[split].End() > mid {
					return fmt.Errorf("core: target %v straddles children of %v", targets[split], g.id)
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
					d.next = append(d.next, half)
				}
			}
		}
		d.level, d.next = d.next, d.level
	}
	return nil
}

// run is one node of a descent's level with the run of targets lying
// strictly inside it: targets[lo:hi].
type run struct {
	id     NodeID
	lo, hi int
}

// descent is ResolvePublished's scratch, recycled through descents.
type descent struct {
	targets     []Range
	level, next []run
	ids         []NodeID
	nodes       []Node
}

var descents = bufpool.NewPool((*descent).reset, func(d *descent) { clear(d.ids); d.reset() })

// reset empties d, keeping its arrays.
func (d *descent) reset() {
	clear(d.nodes) // a store may have answered with a leaf's provider list
	*d = descent{targets: d.targets[:0], level: d.level[:0], next: d.next[:0], ids: d.ids[:0], nodes: d.nodes[:0]}
}
