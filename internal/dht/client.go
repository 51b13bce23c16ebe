package dht

import (
	"context"
	"fmt"
	"slices"

	"blobseer/internal/bufpool"
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

// batch is the share of one call that goes to one ring node, and the
// request that carries it there.
type batch struct {
	node         string
	idx          []int         // positions in the call's key slice, ascending
	keys, values [][]byte      // the call's keys (and values, if it has any) at idx
	err          error         // why the node did not answer (MultiGet only)
	resp         wire.Recycler // its answer, which values alias (MultiGet only)

	// The batch's request, one of the three by the call's kind: a
	// request passed to an rpc call escapes, and here it lives in the
	// call's recycled routing, not on the heap of its own.
	put wire.DHTMultiPutReq
	get wire.DHTMultiGetReq
	del wire.DHTDeleteReq
}

// firstKey is the index list of every one-key call.
var firstKey = []int{0}

// route groups a call's keys by destination: every key goes to replicas
// first..first+count-1 of its replica set; values may be nil. The
// batches come back in ring order, non-empty ones only. A batch is a
// slice, not a map entry: the index lists are carved from one slab by a
// counting sort over ring positions, the key and value lists from
// another — and a batch that takes the whole call borrows the caller's
// slices instead. The slabs and the batches are rt's, the caller's
// recycled scratch, valid until it releases rt. A call of one key to
// one replica (every level of a one-page descent) skips the sort.
func (c *Client) route(rt *routing, keys, values [][]byte, first, count int) []batch {
	r := c.ring
	if len(keys) == 1 && count == 1 {
		node := r.addrs[r.at(r.primary(keys[0]), first)]
		rt.out = append(rt.out[:0], batch{node: node, idx: firstKey, keys: keys, values: values})
		return rt.out
	}
	// next[p] is where position p's next index goes in the slab: its
	// run's start while filling, its run's end afterwards.
	next := resized(rt.next, len(r.addrs))
	rt.next = next
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
	idx := resized(rt.idx, total)
	rt.idx = idx
	for i, key := range keys {
		p := r.primary(key)
		for k := first; k < first+count; k++ {
			q := r.at(p, k)
			idx[next[q]] = i
			next[q]++
		}
	}
	out := slices.Grow(rt.out[:0], used)
	room := total
	if values != nil {
		room = 2 * total
	}
	lists := slices.Grow(rt.lists[:0], room)
	start := 0
	for p, end := range next {
		if end == start {
			continue
		}
		b := batch{node: r.addrs[p], idx: idx[start:end], keys: keys, values: values}
		if len(b.idx) < len(keys) {
			b.keys, lists = gather(lists, keys, b.idx)
			if values != nil {
				b.values, lists = gather(lists, values, b.idx)
			}
		}
		out = append(out, b)
		start = end
	}
	rt.out, rt.lists = out, lists
	return out
}

// routing is route's scratch for one call: the counting sort's
// positions, the index slab, the batches with their requests, and the
// gathered key and value lists. Every request a call sends is framed
// before the call returns, so the call hands it back through release
// when it does.
type routing struct {
	next, idx []int
	out       []batch
	lists     [][]byte
}

var routings = bufpool.NewPool((*routing).reset, (*routing).reset)

// reset drops what rt references of the call; a batch's request goes
// with it, so a request used after its call returned is empty.
func (rt *routing) reset() {
	clear(rt.out)
	clear(rt.lists)
	rt.out, rt.lists = rt.out[:0], rt.lists[:0]
}

// resized returns buf holding n zero values, in its own array when
// that has the room.
func resized[T any](buf []T, n int) []T {
	buf = slices.Grow(buf[:0], n)[:n]
	clear(buf)
	return buf
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
	rt := routings.Get()
	defer routings.Put(rt)
	batches := c.route(rt, keys, values, 0, c.ring.replicas)
	if len(batches) == 1 {
		return c.put(ctx, &batches[0]) // no closure to allocate
	}
	return vclock.Parallel(c.sched, len(batches), func(i int) error {
		return c.put(ctx, &batches[i])
	})
}

// put stores one batch's pairs on its node.
func (c *Client) put(ctx context.Context, b *batch) error {
	b.put = wire.DHTMultiPutReq{Keys: b.keys, Values: b.values}
	_, err := c.rpc.Call(ctx, b.node, &b.put)
	return err
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
// The answers go into values and found, the caller's buffers, resized
// to len(keys) (in their own arrays when those have the room, so a
// caller may pass nil) and returned; they align with keys.
//
// The values alias the decoded responses (wire.DHTMultiGetResp), which
// the call appends to *held, on every path, unless held is nil. Their
// receiver hands each back with Recycle once it reads none of the
// values, and reads none afterwards; with held nil the responses are
// left to the collector and the values are the caller's to keep.
func (c *Client) MultiGet(ctx context.Context, keys, values [][]byte, found []bool, held *[]wire.Recycler) ([][]byte, []bool, error) {
	values, found = resized(values, len(keys)), resized(found, len(keys))
	if err := c.multiGet(ctx, keys, values, found, held, 0); err != nil {
		return nil, nil, err
	}
	return values, found, nil
}

// multiGet asks replica number replica of every key's replica set, and
// the replicas after it for what that one did not yield, filling values
// and found, which align with keys.
func (c *Client) multiGet(ctx context.Context, keys, values [][]byte, found []bool, held *[]wire.Recycler, replica int) error {
	if len(keys) == 0 {
		return nil
	}
	rt := routings.Get()
	defer routings.Put(rt)
	batches := c.route(rt, keys, nil, replica, 1)
	var err error
	if len(batches) == 1 {
		err = c.get(ctx, &batches[0], values, found) // no closure to allocate
	} else {
		err = vclock.Parallel(c.sched, len(batches), func(i int) error {
			return c.get(ctx, &batches[i], values, found)
		})
	}
	for i := range batches {
		if r := batches[i].resp; r != nil && held != nil {
			*held = append(*held, r)
		}
	}
	if err != nil {
		return err
	}
	if replica+1 < c.ring.replicas {
		var missed []int
		var missedKeys [][]byte
		for i, ok := range found {
			if !ok {
				missed, missedKeys = append(missed, i), append(missedKeys, keys[i])
			}
		}
		later, laterFound := make([][]byte, len(missed)), make([]bool, len(missed))
		if err := c.multiGet(ctx, missedKeys, later, laterFound, held, replica+1); err != nil {
			return err
		}
		for j, i := range missed {
			values[i], found[i] = later[j], laterFound[j]
		}
	}
	// What no replica had is absent only if this one answered.
	for i := range batches {
		if err := batches[i].unanswered(found); err != nil {
			return err
		}
	}
	return nil
}

// get asks b's node for b's keys and files the answers in values and
// found at b's positions. A node that does not answer is recorded in
// b.err, not returned: its keys go to the next replica.
func (c *Client) get(ctx context.Context, b *batch, values [][]byte, found []bool) error {
	b.get = wire.DHTMultiGetReq{Keys: b.keys}
	resp, err := c.rpc.Call(ctx, b.node, &b.get)
	if err != nil {
		b.err = err
		return nil
	}
	r := resp.(*wire.DHTMultiGetResp)
	b.resp = r
	if len(r.Found) != len(b.idx) {
		return fmt.Errorf("dht: multiget answered %d of %d keys", len(r.Found), len(b.idx))
	}
	for j, idx := range b.idx {
		values[idx], found[idx] = r.Values[j], r.Found[j]
	}
	return nil
}

// unanswered returns why b's node did not answer if one of b's keys is
// still not found, nil otherwise.
func (b *batch) unanswered(found []bool) error {
	if b.err == nil {
		return nil
	}
	for _, i := range b.idx {
		if !found[i] {
			return b.err
		}
	}
	return nil
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
	rt := routings.Get()
	defer routings.Put(rt)
	batches := c.route(rt, keys, nil, 0, c.ring.replicas)
	if len(batches) == 1 {
		return c.delete(ctx, &batches[0])
	}
	removed := make([]uint64, len(batches))
	err := vclock.Parallel(c.sched, len(batches), func(i int) error {
		var err error
		removed[i], err = c.delete(ctx, &batches[i])
		return err
	})
	var total uint64
	for _, d := range removed {
		total += d
	}
	return total, err
}

// delete removes one batch's keys from its node and returns how many it
// held.
func (c *Client) delete(ctx context.Context, b *batch) (uint64, error) {
	b.del = wire.DHTDeleteReq{Keys: b.keys}
	resp, err := c.rpc.Call(ctx, b.node, &b.del)
	if err != nil {
		return 0, err
	}
	return resp.(*wire.DHTDeleteResp).Deleted, nil
}
