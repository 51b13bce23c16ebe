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
	w := wire.WriterOn(buf)
	switch {
	case n.Leaf && len(n.Providers) == 1:
		w.Uint8(nodeTagLeaf)
		w.Raw(n.Page[:])
		w.String(n.Providers[0])
	case n.Leaf:
		w.Uint8(nodeTagLeafR)
		w.Raw(n.Page[:])
		w.Uint8(uint8(len(n.Providers)))
		for _, p := range n.Providers {
			w.String(p)
		}
	default:
		w.Uint8(nodeTagInner)
		w.Uint64(n.VL)
		w.Uint64(n.VR)
	}
	return w.Bytes()
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

// DecodeNode parses a node encoded with Encode.
func DecodeNode(p []byte) (Node, error) {
	r := wire.NewReader(p)
	var n Node
	switch tag := r.Uint8(); tag {
	case nodeTagLeaf:
		n.Leaf = true
		copy(n.Page[:], r.Raw(16))
		n.Providers = []string{r.String()}
	case nodeTagLeafR:
		n.Leaf = true
		copy(n.Page[:], r.Raw(16))
		cnt := int(r.Uint8())
		n.Providers = make([]string, 0, cnt)
		for i := 0; i < cnt; i++ {
			n.Providers = append(n.Providers, r.String())
		}
	case nodeTagInner:
		n.VL = r.Uint64()
		n.VR = r.Uint64()
	default:
		return Node{}, fmt.Errorf("core: unknown node tag %d", tag)
	}
	if err := r.Finish(); err != nil {
		return Node{}, fmt.Errorf("core: decoding node: %w", err)
	}
	if n.Leaf && len(n.Providers) == 0 {
		return Node{}, fmt.Errorf("core: leaf node with no providers")
	}
	return n, nil
}

// NodeStore is the persistence interface the algorithms traverse and
// populate. Implementations resolve a NodeID to a concrete storage key
// (adding the blob lineage namespace) and talk to the metadata DHT;
// package meta provides the production implementation, tests use an
// in-memory fake.
type NodeStore interface {
	// GetNodes fetches the given nodes. Every id must exist: a missing
	// node means metadata corruption (or a reference to an aborted
	// update) and must surface as an error naming the id. ids is the
	// caller's scratch, reused for the next level of a descent: the
	// store must not keep it past the call.
	GetNodes(ctx context.Context, ids []NodeID) ([]Node, error)
	// PutNodes stores nodes; ids[i] describes nodes[i]. Nodes are
	// immutable, so re-storing an existing id is a harmless no-op.
	PutNodes(ctx context.Context, ids []NodeID, nodes []Node) error
}
