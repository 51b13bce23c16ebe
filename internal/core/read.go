package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"blobseer/internal/wire"
)

// PageRead locates one page of a snapshot for a READ: which providers
// store which page id, and where the page sits in the blob. Providers has
// one entry per replica; readers may fetch from any of them.
type PageRead struct {
	Index     uint64 // page index within the blob
	Page      wire.PageID
	Providers []string
}

// ReadPlan implements READ_META (Algorithm 3 of the paper): it descends
// the segment tree of one snapshot from root and returns a page descriptor
// for every page intersecting want, sorted by page index.
//
// The descent is breadth-first with one batched NodeStore fetch per tree
// level, which is the same round-trip count as the paper's parallel
// exploration of the node set NS.
func ReadPlan(ctx context.Context, st NodeStore, root NodeID, want Range) ([]PageRead, error) {
	if want.Count == 0 {
		return nil, nil
	}
	if !root.Range().Contains(want) {
		return nil, fmt.Errorf("core: read %v outside tree root %v", want, root)
	}
	out := make([]PageRead, 0, want.Count)
	// Two slices alternate as this level's fetch list and the next one's;
	// every level's nodes land in one buffer.
	frontier, next := []NodeID{root}, []NodeID(nil)
	var nodes []Node
	for len(frontier) > 0 {
		var err error
		if nodes, err = st.GetNodes(ctx, frontier, nodes); err != nil {
			return nil, err
		}
		next = next[:0]
		for i, id := range frontier {
			n := nodes[i]
			if id.IsLeaf() {
				if !n.Leaf {
					return nil, fmt.Errorf("core: node %v should be a leaf", id)
				}
				out = append(out, PageRead{Index: id.Offset, Page: n.Page, Providers: n.Providers})
				continue
			}
			if n.Leaf {
				return nil, fmt.Errorf("core: node %v should be inner", id)
			}
			for _, child := range [2]NodeID{id.Left(n.VL), id.Right(n.VR)} {
				if !child.Range().Intersects(want) {
					continue
				}
				if child.Version == wire.NoVersion {
					return nil, fmt.Errorf("core: read %v crosses hole at %v under %v",
						want, child.Range(), id)
				}
				next = append(next, child)
			}
		}
		frontier, next = next, frontier
	}
	slices.SortFunc(out, func(a, b PageRead) int { return cmp.Compare(a.Index, b.Index) })
	if uint64(len(out)) != want.Count {
		return nil, fmt.Errorf("core: read %v resolved %d pages, want %d",
			want, len(out), want.Count)
	}
	return out, nil
}
