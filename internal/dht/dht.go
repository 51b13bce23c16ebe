// Package dht implements the custom distributed hash table BlobSeer uses
// for metadata. Following the paper (§5: "a custom DHT based on a simple
// static distribution scheme"), the membership is fixed at cluster start:
// keys are hashed to one of the known metadata providers, with optional
// replication onto the next providers on the ring (replication is an
// extension; the paper lists fault tolerance as future work).
//
// Values are immutable once written — tree nodes are never modified, new
// versions create new keys (§4.1) — which makes replication trivial:
// replicas never diverge, any copy is authoritative.
package dht

import "fmt"

// Ring is the static key→node mapping. It is immutable after creation and
// therefore safe to share between any number of clients.
type Ring struct {
	addrs    []string
	replicas int
}

// NewRing builds a ring over the given metadata provider addresses with
// the given replication factor (clamped to [1, len(addrs)]).
func NewRing(addrs []string, replicas int) (*Ring, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("dht: ring needs at least one node")
	}
	if replicas < 1 {
		replicas = 1
	}
	if replicas > len(addrs) {
		replicas = len(addrs)
	}
	r := &Ring{addrs: append([]string(nil), addrs...), replicas: replicas}
	return r, nil
}

// primary returns the ring position that owns key: its FNV-1a hash
// (cheap, and plenty uniform for the static distribution the paper
// describes; inlined, hash/fnv's New64a allocates) modulo the ring
// size. The key's replica set is that position and the next
// replicas-1 positions, see at.
func (r *Ring) primary(key []byte) int {
	h := uint64(14695981039346656037)
	for _, b := range key {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return int(h % uint64(len(r.addrs)))
}

// at returns the position i steps clockwise of pos.
func (r *Ring) at(pos, i int) int { return (pos + i) % len(r.addrs) }
