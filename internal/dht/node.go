package dht

import (
	"bytes"
	"context"
	"sync"

	"blobseer/internal/rpc"
	"blobseer/internal/seglog"
	"blobseer/internal/transport"
	"blobseer/internal/vclock"
	"blobseer/internal/wire"
)

// kvShards spreads the key space over independent locks; metadata trees
// are read by many concurrent clients (§4.2).
const kvShards = 64

// Node is one metadata provider: an RPC service storing key/value pairs,
// optionally persisted to a segmented log (see ServeDurableNode).
type Node struct {
	srv    *rpc.Server
	log    *seglog.KV // nil for the in-memory node
	shards [kvShards]kvShard
}

// kvShard is one lock's worth of the RAM state. A handler holds at most
// one shard lock at a time and never across a wait on the log; the
// log's own locks (its writer mutex and index stripes, taken by
// EnqueuePut, EnqueueDelete and Has) nest inside it.
//
//blobseer:lockorder kvShard.mu
type kvShard struct {
	mu    sync.RWMutex
	m     map[string][]byte
	bytes uint64
}

// ServeNode starts a metadata provider on ln.
func ServeNode(ln transport.Listener, sched vclock.Scheduler) *Node {
	n := newNode(nil)
	n.srv = rpc.Serve(ln, sched, n.mux())
	return n
}

func newNode(log *seglog.KV) *Node {
	n := &Node{log: log}
	for i := range n.shards {
		n.shards[i].m = make(map[string][]byte)
	}
	return n
}

// Addr returns the node's service address.
func (n *Node) Addr() string { return n.srv.Addr() }

// Close stops the service and, for durable nodes, closes the log.
func (n *Node) Close() {
	n.srv.Close()
	if n.log != nil {
		n.log.Close()
	}
}

func (n *Node) shard(key []byte) *kvShard {
	h := uint(2166136261)
	for _, b := range key {
		h = (h ^ uint(b)) * 16777619
	}
	return &n.shards[h%kvShards]
}

// putBatch stores the pairs of one DHT_PUT or DHT_MULTI_PUT request as
// one unit. Values are immutable: a re-put of the stored value is an
// idempotent no-op, but a re-put with a *different* value is rejected —
// node keys embed version+range, so two writers can only ever produce
// identical bytes for the same key, and divergence signals corruption
// (or a buggy client) that silently keeping the first value would hide.
//
// Per key the shard lock covers only the dup/divergence check, the
// insert of an exact-size copy (keys and values alias the request
// frame, and a sub-slice would pin it) and, on a durable node, the
// enqueue of the log record. The lock is not held across the commit:
// every record is awaited once after the loop, so a request is one
// write and at most one fsync, readers of the shard are not parked
// behind it, and the request is acknowledged only after it is logged.
// A pair is therefore visible before it is durable. Nobody can tell:
// a tree node is reachable only from a root whose writer was
// acknowledged, which is after this returns; and because the insert is
// under the same lock as the check, the immutability rule also holds
// against a put that is enqueued but not yet committed and against a
// key repeated inside one request.
//
// A request that finds its key stored but not yet logged — a concurrent
// request's put of the same bytes, still in flight — logs the pair
// again instead of trusting the other's commit, so its own
// acknowledgement too comes after the log; the log's first-record-wins
// apply absorbs the duplicate. If a commit fails, the pairs this
// request made visible and the log does not hold are withdrawn. (A
// divergence error does not withdraw the earlier pairs of its request:
// they are logged, and what is logged stays visible.) Deleting a key
// whose put is in flight is outside the contract — keys are collected
// only once unreachable, and a key being put belongs to an unpublished
// version.
func (n *Node) putBatch(keys, values [][]byte) error {
	if len(keys) != len(values) {
		return wire.NewError(wire.CodeBadRequest,
			"key/value count mismatch: %d vs %d", len(keys), len(values))
	}
	for i := range keys {
		if len(keys[i]) == 0 {
			return wire.NewError(wire.CodeBadRequest, "empty key at index %d", i)
		}
	}
	var waits []func() error
	if n.log != nil {
		waits = make([]func() error, 0, len(keys))
	}
	// done counts the keys handled; raced is set when one of them was
	// logged although already visible (see above).
	done, raced := 0, false
	var firstErr error
	for i, key := range keys {
		s := n.shard(key)
		s.mu.Lock()
		old, dup := s.m[string(key)]
		if dup && !bytes.Equal(old, values[i]) {
			s.mu.Unlock()
			firstErr = wire.NewError(wire.CodeBadRequest,
				"divergent re-put of key %x: stored %d bytes, got %d", key, len(old), len(values[i]))
			break
		}
		if dup && (n.log == nil || n.log.Has(string(key))) {
			s.mu.Unlock()
			done++
			continue
		}
		k := string(key)
		if n.log != nil {
			wait, err := n.log.EnqueuePut(k, values[i])
			if err != nil {
				s.mu.Unlock()
				firstErr = wire.NewError(wire.CodeUnavailable, "metadata log: %v", err)
				break
			}
			waits = append(waits, wait)
			raced = raced || dup
		}
		if !dup {
			s.m[k] = append([]byte(nil), values[i]...)
			s.bytes += uint64(len(values[i]))
		}
		s.mu.Unlock()
		done++
	}
	// Every enqueued record must be awaited even when a later key failed:
	// the first one may have designated this handler as the batch leader,
	// and an unawaited leader stalls the whole queue.
	var commitErr error
	for _, wait := range waits {
		if err := wait(); err != nil && commitErr == nil {
			commitErr = err
		}
	}
	if commitErr != nil {
		firstErr = wire.NewError(wire.CodeUnavailable, "metadata log: %v", commitErr)
	}
	if commitErr != nil || raced {
		// Settle what is visible against what the log holds, for the keys
		// this request handled (and so logged, unless the log had them):
		// withdraw the pairs of a failed commit, and restore a pair this
		// request logged after the request it raced failed and withdrew it.
		for i, key := range keys[:done] {
			s := n.shard(key)
			s.mu.Lock()
			old, visible := s.m[string(key)]
			switch logged := n.log.Has(string(key)); {
			case visible && !logged:
				delete(s.m, string(key))
				s.bytes -= uint64(len(old))
			case logged && !visible:
				s.m[string(key)] = append([]byte(nil), values[i]...)
				s.bytes += uint64(len(values[i]))
			}
			s.mu.Unlock()
		}
	}
	return firstErr
}

// delete removes a batch of pairs, returning how many existed here. Like
// putBatch, on durable nodes each tombstone is enqueued to the log under
// the shard lock and the whole batch is awaited at once after the loop,
// so its records share write+fsync via group commit — GC sweeps delete
// thousands of keys per request, and one fsync per key would serialize
// the sweep on the disk. A crash before the batch commits may resurrect
// some pairs of an unacknowledged batch; deletes are idempotent, so the
// collector's re-run removes them again. Unknown keys are no-ops.
func (n *Node) delete(keys [][]byte) (uint64, error) {
	var deleted uint64
	var enqueued []func() error
	var firstErr error
	for _, key := range keys {
		s := n.shard(key)
		s.mu.Lock()
		old, ok := s.m[string(key)]
		if !ok {
			s.mu.Unlock()
			continue
		}
		if n.log != nil {
			wait, err := n.log.EnqueueDelete(string(key))
			if err != nil {
				s.mu.Unlock()
				firstErr = err
				break
			}
			enqueued = append(enqueued, wait)
		}
		delete(s.m, string(key))
		s.bytes -= uint64(len(old))
		s.mu.Unlock()
		deleted++
	}
	// Every enqueued record must be awaited even when a later enqueue
	// failed: the first one may have designated this handler as the batch
	// leader, and an unawaited leader stalls the whole queue.
	for _, wait := range enqueued {
		if err := wait(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return deleted, wire.NewError(wire.CodeUnavailable, "metadata log: %v", firstErr)
	}
	return deleted, nil
}

func (n *Node) get(key []byte) ([]byte, bool) {
	s := n.shard(key)
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.m[string(key)]
	return v, ok
}

// Stats returns the number of keys and total value bytes stored.
func (n *Node) Stats() (keys, bytes uint64) {
	for i := range n.shards {
		s := &n.shards[i]
		s.mu.RLock()
		keys += uint64(len(s.m))
		bytes += s.bytes
		s.mu.RUnlock()
	}
	return keys, bytes
}

// LogBytes reports the durable node's on-disk footprint: the summed
// size of every metadata log segment (0 for an in-memory node).
// Compaction shrinks it.
func (n *Node) LogBytes() int64 {
	if n.log == nil {
		return 0
	}
	return n.log.Stats().LogBytes
}

// SnapshotLog writes the durable node's index snapshot on demand, so
// the next reopen replays only records logged after this call. No-op
// for an in-memory node.
func (n *Node) SnapshotLog() error {
	if n.log == nil {
		return nil
	}
	return n.log.Snapshot()
}

// CompactLog rewrites metadata log segments dominated by deleted pairs
// and covers the rewrites with a fresh index snapshot, reclaiming the
// space of GC'd tree nodes. No-op for an in-memory node.
func (n *Node) CompactLog() error {
	if n.log == nil {
		return nil
	}
	return n.log.Compact()
}

func (n *Node) mux() *rpc.Mux {
	m := rpc.NewMux()
	m.Register(wire.KindPingReq, func(_ context.Context, msg wire.Msg) (wire.Msg, error) {
		return &wire.PingResp{Nonce: msg.(*wire.PingReq).Nonce}, nil
	})
	m.Register(wire.KindDHTPutReq, func(_ context.Context, msg wire.Msg) (wire.Msg, error) {
		req := msg.(*wire.DHTPutReq)
		if err := n.putBatch([][]byte{req.Key}, [][]byte{req.Value}); err != nil {
			return nil, err
		}
		return &wire.DHTPutResp{}, nil
	})
	m.Register(wire.KindDHTGetReq, func(_ context.Context, msg wire.Msg) (wire.Msg, error) {
		req := msg.(*wire.DHTGetReq)
		v, ok := n.get(req.Key)
		return &wire.DHTGetResp{Found: ok, Value: v}, nil
	})
	m.Register(wire.KindDHTMultiPutReq, func(_ context.Context, msg wire.Msg) (wire.Msg, error) {
		req := msg.(*wire.DHTMultiPutReq)
		if err := n.putBatch(req.Keys, req.Values); err != nil {
			return nil, err
		}
		return &wire.DHTMultiPutResp{}, nil
	})
	m.Register(wire.KindDHTMultiGetReq, func(_ context.Context, msg wire.Msg) (wire.Msg, error) {
		req := msg.(*wire.DHTMultiGetReq)
		resp := &wire.DHTMultiGetResp{
			Found:  make([]bool, len(req.Keys)),
			Values: make([][]byte, len(req.Keys)),
		}
		for i, k := range req.Keys {
			resp.Values[i], resp.Found[i] = n.get(k)
		}
		return resp, nil
	})
	m.Register(wire.KindDHTStatsReq, func(context.Context, wire.Msg) (wire.Msg, error) {
		keys, bytes := n.Stats()
		return &wire.DHTStatsResp{Keys: keys, Bytes: bytes}, nil
	})
	m.Register(wire.KindDHTDeleteReq, func(_ context.Context, msg wire.Msg) (wire.Msg, error) {
		req := msg.(*wire.DHTDeleteReq)
		for i := range req.Keys {
			if len(req.Keys[i]) == 0 {
				return nil, wire.NewError(wire.CodeBadRequest, "empty key at index %d", i)
			}
		}
		deleted, err := n.delete(req.Keys)
		if err != nil {
			return nil, err
		}
		return &wire.DHTDeleteResp{Deleted: deleted}, nil
	})
	return m
}
