package dht

import (
	"context"

	"blobseer/internal/obs"
	"blobseer/internal/rpc"
	"blobseer/internal/seglog"
	"blobseer/internal/transport"
	"blobseer/internal/vclock"
	"blobseer/internal/wire"
)

// Node is one metadata provider: the wire front-end — validation,
// request and response framing, buffer ownership — over a storage
// engine that holds the pairs: Mem (ServeNode) or Disk
// (ServeDurableNode).
type Node struct {
	srv *rpc.Server
	eng engine
	// log is the Disk engine's store, nil over Mem: what CompactLog acts on.
	log *seglog.KV
}

// engine stores a node's pairs. Keys are non-empty and values are
// immutable: a re-put of the stored value is an idempotent no-op, but a
// re-put with a *different* value is rejected — node keys embed
// version+range, so two writers can only ever produce identical bytes
// for the same key, and divergence signals corruption (or a buggy
// client) that silently keeping the first value would hide. The rule
// holds against concurrent requests and against a key repeated inside
// one. Implementations are safe for concurrent use.
type engine interface {
	// putBatch stores the pairs of one request as one unit and returns
	// once they are as durable as the engine makes them. keys and values
	// alias the request's frame: the engine copies what it keeps. A
	// divergence error fails the request; the pairs before it stay
	// stored, and those after it may.
	putBatch(keys, values [][]byte) error
	// getBatch looks keys up, setting found[i] and values[i] for each
	// keys[i] it holds. The values are read-only and on loan together
	// with lent until the caller passes lent to release, once, as the
	// last thing it does with them. A failed getBatch lends nothing.
	getBatch(keys [][]byte, found []bool, values [][]byte) (lent []byte, err error)
	// release takes back what one getBatch lent.
	release(lent []byte)
	// deleteBatch removes pairs, returning how many were stored here:
	// unknown keys are no-ops, and a key named twice — in one request or
	// by two concurrent ones — counts once. The caller (a collector
	// walking version metadata) has proven every key unreachable; keys
	// are never reused afterwards.
	deleteBatch(keys [][]byte) (deleted uint64, err error)
	// Metrics writes the engine's store_* series.
	Metrics(*obs.Sink)
	close() error
}

// divergent is the error of a re-put that breaks the immutability rule.
func divergent(key []byte, stored, got int) error {
	return wire.NewError(wire.CodeBadRequest,
		"divergent re-put of key %x: stored %d bytes, got %d", key, stored, got)
}

// ServeNode starts a metadata provider on ln, its pairs in RAM.
func ServeNode(ln transport.Listener, sched vclock.Scheduler) *Node {
	n := newNode(nil)
	n.srv = rpc.Serve(ln, sched, n.mux())
	return n
}

// newNode builds the node over the Disk engine of log, or over Mem when
// log is nil.
func newNode(log *seglog.KV) *Node {
	if log == nil {
		return &Node{eng: newMem()}
	}
	return &Node{eng: newDisk(log), log: log}
}

// Addr returns the node's service address.
func (n *Node) Addr() string { return n.srv.Addr() }

// Close stops the service and closes the engine (for durable nodes, the
// log).
func (n *Node) Close() {
	n.srv.Close()
	n.eng.close()
}

// Metrics writes the node's series: its rpc server's and its engine's.
func (n *Node) Metrics(s *obs.Sink) {
	n.srv.Metrics(s)
	n.eng.Metrics(s)
}

// CompactLog rewrites metadata log segments dominated by deleted pairs,
// reclaiming the space of GC'd tree nodes — the active segment too,
// which it seals first when it qualifies. The rewrites are covered by a
// fresh index snapshot when the log keeps one (SnapshotEvery, or a
// snapshot already on disk); otherwise reopen rescans. No-op for an
// in-memory node.
func (n *Node) CompactLog() error {
	if n.log == nil {
		return nil
	}
	return n.log.Compact()
}

// put validates and stores the pairs of one DHT_PUT or DHT_MULTI_PUT:
// a malformed request stores nothing, wherever in it the defect sits.
func (n *Node) put(keys, values [][]byte) error {
	if len(keys) != len(values) {
		return wire.NewError(wire.CodeBadRequest,
			"key/value count mismatch: %d vs %d", len(keys), len(values))
	}
	if err := nonEmpty(keys); err != nil {
		return err
	}
	return n.eng.putBatch(keys, values)
}

func nonEmpty(keys [][]byte) error {
	for i := range keys {
		if len(keys[i]) == 0 {
			return wire.NewError(wire.CodeBadRequest, "empty key at index %d", i)
		}
	}
	return nil
}

// lentValue and lentValues are the DHT_GET and DHT_MULTI_GET responses
// as the node's handlers return them: the wire message — they marshal
// as exactly that, its methods are promoted — plus the engine its
// values are on loan from (engine.getBatch). They implement
// rpc.Borrower, so the server gives the loan back once the response is
// framed; a failed getBatch lends nothing, so there is no handler path
// that releases. Either way each loan is released exactly once.
type lentValue struct {
	wire.DHTGetResp
	eng  engine
	lent []byte
}

func (r *lentValue) Release() { r.eng.release(r.lent) }

type lentValues struct {
	wire.DHTMultiGetResp
	eng  engine
	lent []byte
}

func (r *lentValues) Release() { r.eng.release(r.lent) }

func (n *Node) mux() *rpc.Mux {
	m := rpc.NewMux()
	m.Register(wire.KindPingReq, func(_ context.Context, msg wire.Msg) (wire.Msg, error) {
		return &wire.PingResp{Nonce: msg.(*wire.PingReq).Nonce}, nil
	})
	m.Register(wire.KindDHTPutReq, func(_ context.Context, msg wire.Msg) (wire.Msg, error) {
		req := msg.(*wire.DHTPutReq)
		if err := n.put([][]byte{req.Key}, [][]byte{req.Value}); err != nil {
			return nil, err
		}
		return &wire.DHTPutResp{}, nil
	})
	m.Register(wire.KindDHTGetReq, func(_ context.Context, msg wire.Msg) (wire.Msg, error) {
		req := msg.(*wire.DHTGetReq)
		var found [1]bool
		var value [1][]byte
		lent, err := n.eng.getBatch([][]byte{req.Key}, found[:], value[:])
		if err != nil {
			return nil, err
		}
		return &lentValue{
			DHTGetResp: wire.DHTGetResp{Found: found[0], Value: value[0]},
			eng:        n.eng,
			lent:       lent,
		}, nil
	})
	m.Register(wire.KindDHTMultiPutReq, func(_ context.Context, msg wire.Msg) (wire.Msg, error) {
		req := msg.(*wire.DHTMultiPutReq)
		if err := n.put(req.Keys, req.Values); err != nil {
			return nil, err
		}
		return &wire.DHTMultiPutResp{}, nil
	})
	m.Register(wire.KindDHTMultiGetReq, func(_ context.Context, msg wire.Msg) (wire.Msg, error) {
		req := msg.(*wire.DHTMultiGetReq)
		resp := &lentValues{eng: n.eng}
		resp.Found = make([]bool, len(req.Keys))
		resp.Values = make([][]byte, len(req.Keys))
		var err error
		if resp.lent, err = n.eng.getBatch(req.Keys, resp.Found, resp.Values); err != nil {
			return nil, err
		}
		return resp, nil
	})
	m.Register(wire.KindDHTStatsReq, func(context.Context, wire.Msg) (wire.Msg, error) {
		return &wire.DHTStatsResp{
			Keys:  uint64(obs.Value(n.eng, "store_keys")),
			Bytes: uint64(obs.Value(n.eng, "store_value_bytes")),
		}, nil
	})
	m.Register(wire.KindDHTDeleteReq, func(_ context.Context, msg wire.Msg) (wire.Msg, error) {
		req := msg.(*wire.DHTDeleteReq)
		if err := nonEmpty(req.Keys); err != nil {
			return nil, err
		}
		deleted, err := n.eng.deleteBatch(req.Keys)
		if err != nil {
			return nil, err
		}
		return &wire.DHTDeleteResp{Deleted: deleted}, nil
	})
	return m
}
