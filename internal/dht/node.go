package dht

import (
	"context"

	"blobseer/internal/bufpool"
	"blobseer/internal/obs"
	"blobseer/internal/rpc"
	"blobseer/internal/seglog"
	"blobseer/internal/transport"
	"blobseer/internal/vclock"
	"blobseer/internal/wire"
)

// Node is one metadata provider: the wire front-end — validation,
// request and response framing, buffer ownership — over the segmented
// log that holds the pairs, on disk or, for a node started with no path,
// in memory (disk.go holds the node's contract with it).
type Node struct {
	srv *rpc.Server
	log *seglog.KV
}

// KeyLen is the size of every key a node stores: a tree node's name,
// as internal/meta builds it — a prefix byte, then the owning blob, the
// version, the offset and the span, a uint64 each. A node refuses any
// other size.
const KeyLen = 1 + 8 + 8 + 8 + 8

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
	return &Node{log: log}, nil
}

// Addr returns the node's service address.
func (n *Node) Addr() string { return n.srv.Addr() }

// Close stops the service and closes the log.
func (n *Node) Close() {
	n.srv.Close()
	n.log.Close()
}

// Metrics writes the node's series: its rpc server's and its log's.
func (n *Node) Metrics(s *obs.Sink) {
	n.srv.Metrics(s)
	n.log.Metrics(s)
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
	return n.putBatch(keys, values)
}

// checkKeys refuses a request that names a key of any size but KeyLen,
// before the log sees any of it: a malformed request stores, finds
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
// methods are promoted — plus the buffer its values are on loan with
// (getBatch). It implements rpc.Borrower, so the server gives the loan
// back once the response is framed; a failed getBatch lends nothing, so
// there is no handler path that releases. Either way each loan is
// released exactly once. The response itself is recycled too: it comes
// from lentResponses, and the server hands it back through
// wire.Recycler after Release — or the handler does, when it fails —
// with its Found and Values lists kept for the next MULTI_GET.
type lentValues struct {
	wire.DHTMultiGetResp
	lent []byte
}

var lentResponses = bufpool.NewPool((*lentValues).reset, (*lentValues).reset)

// newLentValues is an empty response with room for n answers.
func newLentValues(n int) *lentValues {
	r := lentResponses.Get()
	r.Found, r.Values = resized(r.Found, n), resized(r.Values, n)
	return r
}

func (r *lentValues) Release() { release(r.lent) }

// Recycle implements wire.Recycler.
func (r *lentValues) Recycle() { lentResponses.Put(r) }

func (r *lentValues) reset() {
	clear(r.Values)
	r.lent = nil
}

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
		resp := newLentValues(len(req.Keys))
		var err error
		if resp.lent, err = n.getBatch(req.Keys, resp.Found, resp.Values); err != nil {
			resp.Recycle()
			return nil, err
		}
		return resp, nil
	})
	m.Register(wire.KindDHTDeleteReq, func(_ context.Context, msg wire.Msg) (wire.Msg, error) {
		req := msg.(*wire.DHTDeleteReq)
		if err := checkKeys(req.Keys); err != nil {
			return nil, err
		}
		deleted, err := n.deleteBatch(req.Keys)
		if err != nil {
			return nil, err
		}
		return &wire.DHTDeleteResp{Deleted: deleted}, nil
	})
	return m
}
