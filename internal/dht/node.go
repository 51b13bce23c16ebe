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
// request and response framing, buffer ownership — over the storage
// engine that holds the pairs, Disk: a segmented log on disk, or in
// memory for a node started with no path.
type Node struct {
	srv *rpc.Server
	eng engine
	// log is the Disk engine's store: what CompactLog acts on.
	log *seglog.KV
}

// KeyLen is the size of every key a node stores: a tree node's name,
// as internal/meta builds it — a prefix byte, then the owning blob, the
// version, the offset and the span, a uint64 each. A node refuses any
// other size.
const KeyLen = 1 + 8 + 8 + 8 + 8

// engine stores a node's pairs. Keys are KeyLen bytes and values are
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

// ServeNode starts a metadata provider on ln whose pairs live in a
// segmented log rooted at path, or in memory when path is empty; the
// log's maintenance runs on sched. A restart on the same path serves
// what the log holds.
func ServeNode(ln transport.Listener, sched vclock.Scheduler, path string, opts LogOptions) (*Node, error) {
	n, err := newNode(sched, path, opts)
	if err != nil {
		return nil, err
	}
	n.srv = rpc.Serve(ln, sched, n.mux())
	return n, nil
}

// newNode opens the node's log, its maintenance on sched, for its caller
// to serve.
func newNode(sched vclock.Scheduler, path string, opts LogOptions) (*Node, error) {
	log, err := seglog.OpenKV(sched, path, metaLayout, opts)
	if err != nil {
		return nil, err
	}
	return &Node{eng: newDisk(log), log: log}, nil
}

// Addr returns the node's service address.
func (n *Node) Addr() string { return n.srv.Addr() }

// Close stops the service and closes the engine, and so the log.
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
// reclaiming the space of GC'd tree nodes, on disk or in RAM — the
// active segment too, which it seals first when it qualifies. The
// rewrites are covered by a fresh index snapshot when the log keeps one
// (SnapshotEvery, or a snapshot already on disk); otherwise reopen
// rescans.
func (n *Node) CompactLog() error { return n.log.Compact() }

// put validates and stores the pairs of one DHT_MULTI_PUT: a malformed
// request stores nothing, wherever in it the defect sits.
func (n *Node) put(keys, values [][]byte) error {
	if len(keys) != len(values) {
		return wire.NewError(wire.CodeBadRequest,
			"key/value count mismatch: %d vs %d", len(keys), len(values))
	}
	if err := checkKeys(keys); err != nil {
		return err
	}
	return n.eng.putBatch(keys, values)
}

// checkKeys refuses a request that names a key of any size but KeyLen,
// before the engine sees any of it: a malformed request stores, finds
// and deletes nothing.
func checkKeys(keys [][]byte) error {
	for i, key := range keys {
		if len(key) != KeyLen {
			return wire.NewError(wire.CodeBadRequest, "key %d is %d bytes, want %d", i, len(key), KeyLen)
		}
	}
	return nil
}

// lentValues is the DHT_MULTI_GET response as the node's handler
// returns it: the wire message — it marshals as exactly that, its
// methods are promoted — plus the engine its values are on loan from
// (engine.getBatch). It implements rpc.Borrower, so the server gives the
// loan back once the response is framed; a failed getBatch lends
// nothing, so there is no handler path that releases. Either way each
// loan is released exactly once.
type lentValues struct {
	wire.DHTMultiGetResp
	eng  engine
	lent []byte
}

func (r *lentValues) Release() { r.eng.release(r.lent) }

func (n *Node) mux() *rpc.Mux {
	m := rpc.NewMux()
	m.Register(wire.KindDHTMultiPutReq, func(_ context.Context, msg wire.Msg) (wire.Msg, error) {
		req := msg.(*wire.DHTMultiPutReq)
		if err := n.put(req.Keys, req.Values); err != nil {
			return nil, err
		}
		return &wire.DHTMultiPutResp{}, nil
	})
	m.Register(wire.KindDHTMultiGetReq, func(_ context.Context, msg wire.Msg) (wire.Msg, error) {
		req := msg.(*wire.DHTMultiGetReq)
		if err := checkKeys(req.Keys); err != nil {
			return nil, err
		}
		resp := &lentValues{eng: n.eng}
		resp.Found = make([]bool, len(req.Keys))
		resp.Values = make([][]byte, len(req.Keys))
		var err error
		if resp.lent, err = n.eng.getBatch(req.Keys, resp.Found, resp.Values); err != nil {
			return nil, err
		}
		return resp, nil
	})
	m.Register(wire.KindDHTDeleteReq, func(_ context.Context, msg wire.Msg) (wire.Msg, error) {
		req := msg.(*wire.DHTDeleteReq)
		if err := checkKeys(req.Keys); err != nil {
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
