package core

import (
	"fmt"

	"blobseer/internal/wire"
)

// InFlight describes a lower-versioned update that has been assigned but
// not yet published. The version manager hands the writer this list at
// assignment time — the paper's "partial set of border nodes" (§4.2) —
// precisely so concurrent writers can weave their trees without waiting
// for each other.
type InFlight struct {
	Version wire.Version
	Pages   Range
}

// Update carries everything BUILD_META needs about one assigned update.
type Update struct {
	// Version is the snapshot version assigned by the version manager.
	Version wire.Version
	// Pages is the page range this update rewrites.
	Pages Range
	// NewSizePages is the blob size (in pages) after this update.
	NewSizePages uint64
	// Published is a recently published version (0 for a blob that was
	// still empty at assignment time).
	Published wire.Version
	// PublishedSizePages is snapshot Published's size in pages.
	PublishedSizePages uint64
	// InFlight lists the assigned-but-unpublished updates with versions
	// below Version, in any order.
	InFlight []InFlight
}

// PageWrite names one freshly stored page of the update; element i covers
// blob page Pages.Start+i. Providers lists every data provider the page
// was stored on (one entry without replication).
type PageWrite struct {
	Page      wire.PageID
	Providers []string
}

// Plan is the output of PlanUpdate: the new tree nodes of one update,
// with border-child versions either already resolved (from the in-flight
// list) or awaiting the published-tree lookups listed by NeedPublished.
type Plan struct {
	update Update
	ids    []NodeID
	nodes  []Node

	// pending lists the unresolved borders in the order they were met. A
	// border range is the child of exactly one planned node, so no range
	// appears twice.
	pending []border
}

// border is one child-version field of one planned node that awaits the
// published tree: nodes[node].VL (left) or .VR covers r.
type border struct {
	r    Range
	node int
	left bool
}

// PlanUpdate implements the pure part of BUILD_META (Algorithm 4): it
// builds the new leaves and inner nodes bottom-up and resolves every
// border child it can from the in-flight list. Border ranges that predate
// all in-flight updates must be resolved against the published tree; they
// are reported by NeedPublished and filled in by Finalize.
func PlanUpdate(u Update, pages []PageWrite) (*Plan, error) {
	if u.Pages.Count == 0 {
		return nil, fmt.Errorf("core: empty update")
	}
	if uint64(len(pages)) != u.Pages.Count {
		return nil, fmt.Errorf("core: update covers %d pages but %d were written",
			u.Pages.Count, len(pages))
	}
	if u.NewSizePages < u.Pages.End() {
		return nil, fmt.Errorf("core: new size %d pages below update end %d",
			u.NewSizePages, u.Pages.End())
	}
	rootSpan := RootSpan(u.NewSizePages)

	// At each level the built nodes are exactly the aligned ranges
	// intersecting the update: a contiguous row, ending in the one root.
	// So the node count is known before the first node is built, and only
	// the row's two outer children can be borders — one per level for the
	// common narrow update, which is what pending is sized for.
	first, last := u.Pages.Start, u.Pages.End()-1
	total, levels := 0, 0
	for span := uint64(1); span <= rootSpan; span *= 2 {
		total += int(last/span - first/span + 1)
		levels++
	}
	p := &Plan{
		update:  u,
		ids:     make([]NodeID, 0, total),
		nodes:   make([]Node, 0, total),
		pending: make([]border, 0, levels),
	}

	// Leaves for the new pages.
	for i, pw := range pages {
		p.ids = append(p.ids, NodeID{Version: u.Version, Offset: first + uint64(i), Span: 1})
		p.nodes = append(p.nodes, Node{Leaf: true, Page: pw.Page, Providers: pw.Providers})
	}

	// Inner nodes, one level at a time up to the root.
	for span := uint64(1); span < rootSpan; span *= 2 {
		parentSpan := span * 2
		for pOff := first - first%parentSpan; pOff <= last; pOff += parentSpan {
			var n Node
			var err error
			n.VL, err = p.childVersion(Range{Start: pOff, Count: span}, len(p.nodes), true)
			if err != nil {
				return nil, err
			}
			n.VR, err = p.childVersion(Range{Start: pOff + span, Count: span}, len(p.nodes), false)
			if err != nil {
				return nil, err
			}
			p.ids = append(p.ids, NodeID{Version: u.Version, Offset: pOff, Span: parentSpan})
			p.nodes = append(p.nodes, n)
		}
	}
	return p, nil
}

// childVersion decides the version reference for the child range c of a
// node being built at nodes[nodeIdx] (about to be appended).
func (p *Plan) childVersion(c Range, nodeIdx int, left bool) (wire.Version, error) {
	u := p.update
	// Built by this very update?
	if c.Intersects(u.Pages) {
		return u.Version, nil
	}
	// The newest in-flight update intersecting c owns the border node.
	var best wire.Version
	found := false
	for _, inf := range u.InFlight {
		if inf.Version < u.Version && inf.Pages.Intersects(c) {
			if !found || inf.Version > best {
				best, found = inf.Version, true
			}
		}
	}
	if found {
		return best, nil
	}
	// Fall back to the published tree.
	if u.PublishedSizePages == 0 || c.Start >= u.PublishedSizePages {
		return wire.NoVersion, nil // never-written hole
	}
	pubSpan := RootSpan(u.PublishedSizePages)
	if c.Count > pubSpan {
		// c strictly contains the published root, yet nothing in flight
		// covers the gap — the blob could never have grown past the
		// published size, so this update's own range would have had to
		// intersect c. Reaching here means inconsistent inputs.
		return 0, fmt.Errorf("core: border %v wider than published tree (span %d)", c, pubSpan)
	}
	if c.Count == pubSpan && c.Start == 0 {
		// c is exactly the published root: the paper's "the set of border
		// nodes contains exactly one node: the root of snapshot vp".
		return u.Published, nil
	}
	p.pending = append(p.pending, border{r: c, node: nodeIdx, left: left})
	return 0, nil // placeholder; Finalize fills it
}

// NeedPublished lists the border ranges that must be resolved by
// descending the published tree (see ResolvePublished).
func (p *Plan) NeedPublished() []Range {
	out := make([]Range, len(p.pending))
	for i, b := range p.pending {
		out[i] = b.r
	}
	return out
}

// Finalize fills the resolved border versions in and returns the complete
// node set to store. resolved must cover every range from NeedPublished.
func (p *Plan) Finalize(resolved map[Range]wire.Version) (ids []NodeID, nodes []Node, err error) {
	for _, b := range p.pending {
		v, ok := resolved[b.r]
		if !ok {
			return nil, nil, fmt.Errorf("core: border %v left unresolved", b.r)
		}
		if b.left {
			p.nodes[b.node].VL = v
		} else {
			p.nodes[b.node].VR = v
		}
	}
	return p.ids, p.nodes, nil
}
