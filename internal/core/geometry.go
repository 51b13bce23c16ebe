// Package core implements BlobSeer's primary contribution: the versioned
// distributed segment tree (§4 of the paper). Every snapshot version of a
// blob is described by a binary tree whose leaves map pages to the data
// providers storing them; updates create only the nodes covering their
// range and "weave" them with nodes of older versions, so consecutive
// snapshots physically share both pages and metadata.
//
// The package is purely algorithmic: it plans metadata reads and writes
// in terms of an abstract NodeStore, and all arithmetic is in page units.
// Byte/page conversion, DHT key construction and RPC happen in the layers
// above (internal/meta, internal/client).
package core

import (
	"fmt"
	"math/bits"

	"blobseer/internal/wire"
)

// Range is a span of pages: [Start, Start+Count).
type Range struct {
	Start uint64
	Count uint64
}

// End returns the first page index past the range.
func (r Range) End() uint64 { return r.Start + r.Count }

// Intersects reports whether two ranges share at least one page.
func (r Range) Intersects(o Range) bool {
	return r.Start < o.End() && o.Start < r.End()
}

// Contains reports whether o lies fully inside r.
func (r Range) Contains(o Range) bool {
	return r.Start <= o.Start && o.End() <= r.End()
}

// String renders the range for diagnostics.
func (r Range) String() string { return fmt.Sprintf("[%d,+%d)", r.Start, r.Count) }

// NodeID identifies one tree node within a blob lineage: the snapshot
// version that created it and the aligned page range it covers. Span is a
// power of two and Offset is a multiple of Span (leaves have Span == 1).
type NodeID struct {
	Version wire.Version
	Offset  uint64
	Span    uint64
}

// Range returns the page range the node covers.
func (id NodeID) Range() Range { return Range{Start: id.Offset, Count: id.Span} }

// IsLeaf reports whether the node covers exactly one page.
func (id NodeID) IsLeaf() bool { return id.Span == 1 }

// Left returns the id of the left child (same range first half). The
// child's version is stored in the parent node, not derivable from the id.
func (id NodeID) Left(version wire.Version) NodeID {
	return NodeID{Version: version, Offset: id.Offset, Span: id.Span / 2}
}

// Right returns the id of the right child (second half of the range).
func (id NodeID) Right(version wire.Version) NodeID {
	return NodeID{Version: version, Offset: id.Offset + id.Span/2, Span: id.Span / 2}
}

// String renders the id for diagnostics.
func (id NodeID) String() string {
	return fmt.Sprintf("v%d@[%d,+%d)", id.Version, id.Offset, id.Span)
}

// RootSpan returns the span of the tree root for a blob of sizePages
// pages: the smallest power of two covering them (minimum 1). A blob of 5
// pages has a root covering 8, matching Figure 1(c) of the paper.
func RootSpan(sizePages uint64) uint64 {
	if sizePages <= 1 {
		return 1
	}
	return 1 << bits.Len64(sizePages-1)
}

// RootID returns the root node id of the snapshot with the given version
// and size. Every update builds nodes up to the root, so the root of
// snapshot v always carries version v.
func RootID(v wire.Version, sizePages uint64) NodeID {
	return NodeID{Version: v, Offset: 0, Span: RootSpan(sizePages)}
}
