package core

import (
	"context"
	"fmt"

	"blobseer/internal/wire"
)

// Node is the content of one tree node. Leaves locate a page; inner nodes
// carry the snapshot versions of their two children (the weaving links of
// §4.1). A child version of wire.NoVersion marks a hole: a subtree range
// that has never been written (possible in incomplete trees, Figure 1(c)).
type Node struct {
	Leaf bool

	// Leaf fields. Providers lists every data provider holding a replica
	// of the page; the paper stores one copy ("each page is stored on a
	// single provider", §3.2) and names replication as future work, which
	// this implements: readers fail over across the list.
	Page      wire.PageID
	Providers []string

	// Inner fields.
	VL wire.Version
	VR wire.Version
}

// node encoding tags.
const (
	nodeTagInner byte = 0
	nodeTagLeaf  byte = 1 // single-provider leaf (the paper's layout)
	nodeTagLeafR byte = 2 // replicated leaf: uint8 count, then addresses
)

// AppendTo appends the node's encoding — its stored form in the metadata
// DHT — to buf in place and returns the extended slice, so a writer can
// lay a whole update's nodes out in one buffer.
func (n *Node) AppendTo(buf []byte) []byte {
	c := wire.EncodeTo(buf)
	n.code(&c)
	return c.Encoded()
}

// EncodedLen is the exact size of the node's encoding, for sizing the
// buffer AppendTo appends to.
func (n *Node) EncodedLen() int {
	if !n.Leaf {
		return 1 + 8 + 8
	}
	size := 1 + len(n.Page)
	if len(n.Providers) != 1 {
		size++ // the replica count
	}
	for _, p := range n.Providers {
		size += 4 + len(p)
	}
	return size
}

// DecodeNode parses a node encoded with AppendTo.
func DecodeNode(p []byte) (Node, error) {
	var n Node
	c := wire.DecodeFrom(p)
	n.code(&c)
	if err := c.Finish(); err != nil {
		return Node{}, fmt.Errorf("core: decoding node: %w", err)
	}
	return n, nil
}

// code is the node's layout: a tag, then a leaf's page and providers —
// one, or a uint8 count of them — or an inner node's child versions.
func (n *Node) code(c *wire.Codec) {
	var tag byte
	switch {
	case c.Decoding():
	case n.Leaf && len(n.Providers) == 1:
		tag = nodeTagLeaf
	case n.Leaf:
		tag = nodeTagLeafR
	default:
		tag = nodeTagInner
	}
	c.Uint8(&tag)
	switch tag {
	case nodeTagInner:
		c.Uint64(&n.VL)
		c.Uint64(&n.VR)
		return
	case nodeTagLeaf, nodeTagLeafR:
	default:
		c.Fail(fmt.Errorf("unknown node tag %d", tag))
		return
	}
	c.Fixed(n.Page[:])
	count := uint8(1)
	if tag == nodeTagLeafR {
		count = uint8(len(n.Providers))
		c.Uint8(&count)
	}
	if c.Decoding() {
		if count == 0 {
			c.Fail(fmt.Errorf("leaf node with no providers"))
		}
		n.Leaf, n.Providers = true, make([]string, count)
	}
	for i := range n.Providers {
		c.String(&n.Providers[i])
	}
}

// NodeStore is the persistence interface the algorithms traverse and
// populate. Implementations resolve a NodeID to a concrete storage key
// (adding the blob lineage namespace) and talk to the metadata DHT;
// package meta provides the production implementation, tests use an
// in-memory fake.
type NodeStore interface {
	// GetNodes fetches the given nodes into buf, resized to len(ids)
	// (in its own array when that has the room), and returns it: node i
	// is ids[i]'s. Every id must exist: a missing node means metadata
	// corruption (or a reference to an aborted update) and must surface
	// as an error naming the id. ids and buf are the caller's scratch,
	// reused for the next level of a descent: the store must not keep
	// either past the call.
	GetNodes(ctx context.Context, ids []NodeID, buf []Node) ([]Node, error)
	// PutNodes stores nodes; ids[i] describes nodes[i]. Nodes are
	// immutable, so re-storing an existing id is a harmless no-op.
	PutNodes(ctx context.Context, ids []NodeID, nodes []Node) error
}
