// Package meta is the metadata provider access layer: it stores segment
// tree nodes (package core) in the metadata DHT (package dht) and adds a
// client-side cache.
//
// A node's storage key embeds the blob that wrote it. After a BRANCH the
// new blob shares every old snapshot with its parent, so a node reference
// (version, range) must be resolved against the blob's lineage to find
// the owning namespace — that is what makes branching cheap: no metadata
// is copied (§2.1).
//
// Tree nodes are immutable, so the cache never needs invalidation: a hit
// is always correct, which is also why the DHT can replicate them freely.
package meta

import (
	"context"
	"encoding/binary"
	"fmt"
	"slices"

	"blobseer/internal/bufpool"
	"blobseer/internal/core"
	"blobseer/internal/dht"
	"blobseer/internal/wire"
)

// nodeKeyPrefix distinguishes tree-node keys from any other DHT use.
const nodeKeyPrefix = 'n'

// NodeKey builds the DHT key for a node owned by the given blob: the
// prefix and four uint64s, dht.KeyLen bytes.
func NodeKey(owner wire.BlobID, id core.NodeID) []byte {
	return AppendNodeKey(make([]byte, 0, dht.KeyLen), owner, id)
}

// AppendNodeKey appends the node's DHT key to buf in place and returns
// the extended slice, so one buffer can hold the keys of a whole batch.
func AppendNodeKey(buf []byte, owner wire.BlobID, id core.NodeID) []byte {
	buf = append(buf, nodeKeyPrefix)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(owner))
	buf = binary.LittleEndian.AppendUint64(buf, id.Version)
	buf = binary.LittleEndian.AppendUint64(buf, id.Offset)
	return binary.LittleEndian.AppendUint64(buf, id.Span)
}

// Store gives the core algorithms access to one blob's metadata tree. It
// implements core.NodeStore. A Store is cheap: create one per blob handle
// and share the Cache between them.
type Store struct {
	dht     *dht.Client
	lineage wire.Lineage
	cache   *Cache // may be nil
}

// NewStore builds a Store for a blob with the given lineage (youngest
// entry first, as returned by the version manager's BlobInfo). cache may
// be nil to disable caching.
func NewStore(d *dht.Client, lineage wire.Lineage, cache *Cache) *Store {
	return &Store{dht: d, lineage: lineage, cache: cache}
}

// cacheKey resolves the owning namespace of a node through the lineage.
func (s *Store) cacheKey(id core.NodeID) cacheKey {
	return cacheKey{Owner: s.lineage.Owner(id.Version), ID: id}
}

// appendKey spells out ck's DHT key at the end of slab and returns it
// as a slice of its own (capped, so a later append to the slab cannot
// run into it).
func appendKey(slab []byte, ck cacheKey) (key, grown []byte) {
	at := len(slab)
	slab = AppendNodeKey(slab, ck.Owner, ck.ID)
	return slab[at:len(slab):len(slab)], slab
}

// GetNodes implements core.NodeStore. A returned leaf's Providers may
// be the cache's interned list, shared with every cached leaf naming
// the same providers: callers read it and must not modify it.
func (s *Store) GetNodes(ctx context.Context, ids []core.NodeID, buf []core.Node) ([]core.Node, error) {
	var narrow [16]bool // the found flags of a narrow level, off the heap
	out, found, err := s.getNodes(ctx, ids, s.cache, buf, narrow[:0])
	if err != nil {
		return nil, err
	}
	for i, ok := range found {
		if !ok {
			return nil, wire.NewError(wire.CodeNotFound, "meta: tree node %v missing", ids[i])
		}
	}
	return out, nil
}

// TryGetNodes fetches ids from the metadata replicas, around the cache
// (no lookup, no fill), and reports absent nodes in found instead of
// failing the whole batch. The garbage collector walks expired snapshot
// trees with it: those nodes may already be deleted, which a cached
// copy would hide, and a node about to be deleted is no use in the
// LRU. A missing node means its subtree was collected. Transport
// failures and undecodable values still error — absence is a state,
// corruption is not. Like GetNodes it fills the caller's buffers, buf
// and found, resized to len(ids).
func (s *Store) TryGetNodes(ctx context.Context, ids []core.NodeID, buf []core.Node, found []bool) ([]core.Node, []bool, error) {
	return s.getNodes(ctx, ids, nil, buf, found)
}

// getNodes fetches ids through cache (nil: straight from the replicas)
// into out, reporting the absent ones in ok; both are resized to
// len(ids).
func (s *Store) getNodes(ctx context.Context, ids []core.NodeID, cache *Cache, out []core.Node, ok []bool) ([]core.Node, []bool, error) {
	out, ok = resized(out, len(ids)), resized(ok, len(ids))
	// DHT keys are spelled out only for the misses, in one recycled slab
	// grown to hold them all at the first. ok[i] is false for exactly the
	// misses until the answers are filled in, in the same order.
	kl := keyLists.Get()
	defer keyLists.Put(kl)
	for i, id := range ids {
		ck := s.cacheKey(id)
		if cache != nil {
			if n, hit := cache.get(ck); hit {
				out[i], ok[i] = n, true
				continue
			}
		}
		if len(kl.keys) == 0 {
			kl.slab = slices.Grow(kl.slab, (len(ids)-i)*dht.KeyLen)
		}
		var key []byte
		key, kl.slab = appendKey(kl.slab, ck)
		kl.keys = append(kl.keys, key)
	}
	keys := kl.keys
	if len(keys) == 0 {
		return out, ok, nil
	}
	values, found, err := s.dht.MultiGet(ctx, keys, kl.values, kl.found, &kl.held)
	kl.values, kl.found = values, found
	if err != nil {
		return nil, nil, fmt.Errorf("meta: fetching %d nodes: %w", len(keys), err)
	}
	j := 0
	for i := range ids {
		if ok[i] {
			continue
		}
		if found[j] {
			n, err := core.DecodeNode(values[j])
			if err != nil {
				return nil, nil, fmt.Errorf("meta: node %v: %w", ids[i], err)
			}
			out[i], ok[i] = n, true
			if cache != nil {
				cache.put(s.cacheKey(ids[i]), n)
			}
		}
		j++
	}
	return out, ok, nil
}

// keyList is one call's DHT scratch: for a lookup, the keys of its
// misses, carved from slab, MultiGet's answers for them and the
// responses those alias, held; for PutNodes, the keys and values it
// stores. The lists are read until the dht call returns, or until its
// answers are decoded, so they are recycled through keyLists, and the
// responses with them.
type keyList struct {
	slab   []byte
	keys   [][]byte
	values [][]byte
	found  []bool
	held   []wire.Recycler
}

var keyLists = bufpool.NewPool((*keyList).reset, func(kl *keyList) {
	bufpool.Poison(kl.slab)
	kl.reset()
})

// reset empties kl and hands back the responses it held.
func (kl *keyList) reset() {
	for _, r := range kl.held {
		r.Recycle()
	}
	clear(kl.held)
	clear(kl.keys)
	clear(kl.values)
	kl.slab, kl.keys, kl.values, kl.found, kl.held = kl.slab[:0], kl.keys[:0], kl.values[:0], kl.found[:0], kl.held[:0]
}

// resized returns buf holding n zero values, in its own array when that
// has the room.
func resized[T any](buf []T, n int) []T {
	buf = slices.Grow(buf[:0], n)[:n]
	clear(buf)
	return buf
}

// PutNodes implements core.NodeStore. New nodes always belong to the
// youngest lineage entry (the blob itself): only the blob's own updates
// create nodes.
func (s *Store) PutNodes(ctx context.Context, ids []core.NodeID, nodes []core.Node) error {
	if len(ids) != len(nodes) {
		return fmt.Errorf("meta: %d ids but %d nodes", len(ids), len(nodes))
	}
	// One slab holds every key and every encoded node of the update. The
	// dht client frames them into its requests before MultiPut returns,
	// so the slab and the lists go back once it has.
	size := len(ids) * dht.KeyLen
	for i := range nodes {
		size += nodes[i].EncodedLen()
	}
	buf := bufpool.Get(size)
	defer bufpool.Put(buf)
	kl := keyLists.Get()
	defer keyLists.Put(kl)
	slab := (*buf)[:0]
	kl.keys, kl.values = resized(kl.keys, len(ids)), resized(kl.values, len(ids))
	keys, values := kl.keys, kl.values
	for i := range ids {
		keys[i], slab = appendKey(slab, s.cacheKey(ids[i]))
		at := len(slab)
		slab = nodes[i].AppendTo(slab)
		values[i] = slab[at:len(slab):len(slab)]
	}
	if err := s.dht.MultiPut(ctx, keys, values); err != nil {
		return fmt.Errorf("meta: storing %d nodes: %w", len(ids), err)
	}
	if s.cache != nil {
		for i := range ids {
			s.cache.put(s.cacheKey(ids[i]), nodes[i])
		}
	}
	return nil
}
