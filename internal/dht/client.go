package dht

import (
	"context"
	"fmt"

	"blobseer/internal/rpc"
	"blobseer/internal/vclock"
	"blobseer/internal/wire"
)

// Client reads and writes DHT pairs through the static ring. It is a thin
// stateless wrapper and safe for concurrent use.
type Client struct {
	ring  *Ring
	rpc   *rpc.Client
	sched vclock.Scheduler
}

// NewClient builds a DHT client over an rpc client.
func NewClient(ring *Ring, rc *rpc.Client, sched vclock.Scheduler) *Client {
	return &Client{ring: ring, rpc: rc, sched: sched}
}

// batch is the share of one call that goes to one ring node.
type batch struct {
	node         string
	idx          []int    // positions in the call's key slice, ascending
	keys, values [][]byte // the call's keys (and values, if it has any) at idx
	err          error    // why the node did not answer (MultiGet only)
}

// firstKey is the index list of every one-key call.
var firstKey = []int{0}

// route groups a call's keys by destination: every key goes to replicas
// first..first+count-1 of its replica set; values may be nil. The
// batches come back in ring order, non-empty ones only. A batch is a
// slice, not a map entry: the index lists are carved from one slab by a
// counting sort over ring positions, the key and value lists from
// another — and a batch that takes the whole call (every one-key call
// to one replica does) borrows the caller's slices instead.
func (c *Client) route(keys, values [][]byte, first, count int) []batch {
	r := c.ring
	if len(keys) == 1 && count == 1 {
		node := r.addrs[r.at(r.primary(keys[0]), first)]
		return []batch{{node: node, idx: firstKey, keys: keys, values: values}}
	}
	// next[p] is where position p's next index goes in the slab: its
	// run's start while filling, its run's end afterwards.
	next := make([]int, len(r.addrs))
	for _, key := range keys {
		p := r.primary(key)
		for k := first; k < first+count; k++ {
			next[r.at(p, k)]++
		}
	}
	used, total := 0, 0
	for p, cnt := range next {
		if cnt > 0 {
			used++
		}
		next[p], total = total, total+cnt
	}
	idx := make([]int, total)
	for i, key := range keys {
		p := r.primary(key)
		for k := first; k < first+count; k++ {
			q := r.at(p, k)
			idx[next[q]] = i
			next[q]++
		}
	}
	out := make([]batch, 0, used)
	room := total
	if values != nil {
		room = 2 * total
	}
	var lists [][]byte
	start := 0
	for p, end := range next {
		if end == start {
			continue
		}
		b := batch{node: r.addrs[p], idx: idx[start:end], keys: keys, values: values}
		if len(b.idx) < len(keys) {
			if lists == nil {
				lists = make([][]byte, 0, room)
			}
			b.keys, lists = gather(lists, keys, b.idx)
			if values != nil {
				b.values, lists = gather(lists, values, b.idx)
			}
		}
		out = append(out, b)
		start = end
	}
	return out
}

// gather appends src's elements at idx to slab, which has the room, and
// returns them as a list of their own.
func gather(slab, src [][]byte, idx []int) (picked, grown [][]byte) {
	at := len(slab)
	for _, i := range idx {
		slab = append(slab, src[i])
	}
	return slab[at:len(slab):len(slab)], slab
}

// MultiPut stores a batch of pairs, grouping them per destination node so
// each node receives one round trip per replica. Every replica must
// acknowledge.
func (c *Client) MultiPut(ctx context.Context, keys, values [][]byte) error {
	if len(keys) != len(values) {
		return fmt.Errorf("dht: %d keys but %d values", len(keys), len(values))
	}
	if len(keys) == 0 {
		return nil
	}
	batches := c.route(keys, values, 0, c.ring.replicas)
	return vclock.Parallel(c.sched, len(batches), func(i int) error {
		b := &batches[i]
		_, err := c.rpc.Call(ctx, b.node, &wire.DHTMultiPutReq{Keys: b.keys, Values: b.values})
		return err
	})
}

// MultiGet fetches a batch of keys, one round trip per involved primary
// node; keys a primary does not have, or did not answer for, are asked
// of the next node of their replica sets the same way — one MULTI_GET
// per node and round, so a sweep over keys that are legitimately absent
// costs at most replicas round trips per node, not one per key. Because
// values are immutable the first copy found is authoritative. A key is
// reported absent (found false, nil error) only when every node of its
// replica set answered and none has it; if one did not answer, its
// error is returned instead: absence is a state, a dead node is not.
// Results align with keys.
func (c *Client) MultiGet(ctx context.Context, keys [][]byte) (values [][]byte, found []bool, err error) {
	return c.multiGet(ctx, keys, 0)
}

// multiGet asks replica number replica of every key's replica set, and
// the replicas after it for what that one did not yield.
func (c *Client) multiGet(ctx context.Context, keys [][]byte, replica int) (values [][]byte, found []bool, err error) {
	values = make([][]byte, len(keys))
	found = make([]bool, len(keys))
	if len(keys) == 0 {
		return values, found, nil
	}
	batches := c.route(keys, nil, replica, 1)
	err = vclock.Parallel(c.sched, len(batches), func(i int) error {
		b := &batches[i]
		resp, err := c.rpc.Call(ctx, b.node, &wire.DHTMultiGetReq{Keys: b.keys})
		if err != nil {
			b.err = err // node down: its keys go to the next replica
			return nil
		}
		r := resp.(*wire.DHTMultiGetResp)
		if len(r.Found) != len(b.idx) {
			return fmt.Errorf("dht: multiget answered %d of %d keys", len(r.Found), len(b.idx))
		}
		for j, idx := range b.idx {
			values[idx], found[idx] = r.Values[j], r.Found[j]
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	if replica+1 < c.ring.replicas {
		var missed []int
		var missedKeys [][]byte
		for i, ok := range found {
			if !ok {
				missed, missedKeys = append(missed, i), append(missedKeys, keys[i])
			}
		}
		later, laterFound, err := c.multiGet(ctx, missedKeys, replica+1)
		if err != nil {
			return nil, nil, err
		}
		for j, i := range missed {
			values[i], found[i] = later[j], laterFound[j]
		}
	}
	// What no replica had is absent only if this one answered.
	for _, b := range batches {
		if b.err == nil {
			continue
		}
		for _, i := range b.idx {
			if !found[i] {
				return nil, nil, b.err
			}
		}
	}
	return values, found, nil
}

// Delete removes a batch of keys from every replica, grouping them per
// destination node so each node receives one round trip per replica.
// Every replica must acknowledge — a surviving copy of a collected tree
// node would resurrect on replica failover and anchor an undeletable
// subtree. Deletes are idempotent, so a collector that crashed
// mid-batch simply re-runs. Returns the number of pair copies actually
// removed, summed over all replicas (a progress figure: a retried sweep
// reports 0 for work already done).
func (c *Client) Delete(ctx context.Context, keys [][]byte) (uint64, error) {
	if len(keys) == 0 {
		return 0, nil
	}
	batches := c.route(keys, nil, 0, c.ring.replicas)
	removed := make([]uint64, len(batches))
	err := vclock.Parallel(c.sched, len(batches), func(i int) error {
		resp, err := c.rpc.Call(ctx, batches[i].node, &wire.DHTDeleteReq{Keys: batches[i].keys})
		if err != nil {
			return err
		}
		removed[i] = resp.(*wire.DHTDeleteResp).Deleted
		return nil
	})
	var total uint64
	for _, d := range removed {
		total += d
	}
	return total, err
}
