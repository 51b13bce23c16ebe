package rpc

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"blobseer/internal/bufpool"
	"blobseer/internal/obs"
	"blobseer/internal/transport"
	"blobseer/internal/vclock"
	"blobseer/internal/wire"
)

// Handler processes one request and returns the response message. An
// error return is converted to an ErrorResp frame: *wire.Error keeps its
// code, any other error maps to CodeUnknown. Handlers may block (SYNC
// does); each request runs on its own goroutine. The context is
// cancelled when the request's connection closes or the server shuts
// down, so a disconnected client cannot strand a blocked handler.
//
// A request is valid until its handler returns: wire.PutPageReq.Data,
// wire.DHTMultiPutReq's keys and values and wire.DHTMultiGetReq's keys
// alias a frame buffer the server recycles once the response is
// encoded, so a handler copies any request bytes it keeps. The response
// may reference the request; it is encoded before the request goes.
//
// A response may also carry buffers its handler borrowed: see Borrower.
type Handler interface {
	Handle(ctx context.Context, m wire.Msg) (wire.Msg, error)
}

// Borrower is implemented by a response that carries buffers it does
// not own — the mirror of the request-body rule. The server calls
// Release exactly once per response a handler returns without an error,
// right after the response has been framed (or has turned out not to be
// frameable), so nothing reads the buffers afterwards; whatever a
// handler borrowed before it failed, it gives back itself.
type Borrower interface{ Release() }

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(ctx context.Context, m wire.Msg) (wire.Msg, error)

// Handle implements Handler.
func (f HandlerFunc) Handle(ctx context.Context, m wire.Msg) (wire.Msg, error) {
	return f(ctx, m)
}

// Mux routes requests to per-kind handlers. Register all kinds before
// serving; Mux is read-only afterwards.
type Mux struct {
	handlers map[wire.Kind]HandlerFunc
}

// NewMux returns an empty Mux.
func NewMux() *Mux { return &Mux{handlers: make(map[wire.Kind]HandlerFunc)} }

// Register installs fn for requests of kind k, replacing any previous
// registration.
func (m *Mux) Register(k wire.Kind, fn HandlerFunc) { m.handlers[k] = fn }

// Handle implements Handler.
func (m *Mux) Handle(ctx context.Context, msg wire.Msg) (wire.Msg, error) {
	fn, ok := m.handlers[msg.Kind()]
	if !ok {
		return nil, wire.NewError(wire.CodeBadRequest, "no handler for %v", msg.Kind())
	}
	return fn(ctx, msg)
}

// Server accepts connections on a listener and dispatches frames to a
// Handler. Create with Serve; stop with Close, which cancels every
// in-flight handler and joins every goroutine the server spawned. Each
// request runs on a goroutine of its own, spawned from a recycled
// record, so a request costs no spawn allocation; once its response is
// framed the server hands back the frame body, a request or response
// that is a wire.Recycler, and a Borrower's loans, and a handler keeps
// none of them.
type Server struct {
	ln      transport.Listener
	sched   vclock.Scheduler
	handler Handler
	cancel  context.CancelFunc
	wg      *vclock.WaitGroup

	// encodeFailures counts responses that could not be encoded into a
	// frame (e.g. oversized payloads). The wire protocol has no way to
	// signal "the error response also failed to encode", so the count is
	// the only trace the second-level failure leaves.
	encodeFailures atomic.Uint64
	// latency is each request kind's handler-latency histogram, made on
	// its first request.
	latency [256]atomic.Pointer[obs.Histogram]

	mu     sync.Mutex
	conns  map[transport.Conn]struct{}
	closed bool
}

// Serve starts accepting connections on ln in the background and returns
// immediately. The caller keeps ownership of ln's address via Addr.
func Serve(ln transport.Listener, sched vclock.Scheduler, h Handler) *Server {
	s := &Server{
		ln:      ln,
		sched:   sched,
		handler: h,
		wg:      vclock.NewWaitGroup(sched),
		conns:   make(map[transport.Conn]struct{}),
	}
	// The server is the lifecycle root for everything that happens on its
	// connections: handlers observe cancellation when their connection
	// dies or Close runs.
	//blobseer:ctx lifecycle root: the server owns the per-connection contexts; Close cancels them
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	s.wg.Go(func() { s.acceptLoop(ctx) })
	return s
}

// Addr returns the listener's address.
func (s *Server) Addr() string { return s.ln.Addr() }

// Metrics writes the server's series: how long its handlers took, by
// request kind, and the responses it could not frame.
func (s *Server) Metrics(sink *obs.Sink) {
	for k := range s.latency {
		if h := s.latency[k].Load(); h != nil {
			sink.Histogram("rpc_handler_seconds", "time a handler took to answer a request, by request kind", h, "kind", wire.Kind(k).String())
		}
	}
	sink.Counter("rpc_encode_failures_total", "responses that could not be framed", float64(s.encodeFailures.Load()))
}

// Close stops accepting, cancels all in-flight handlers, closes all live
// connections, and joins every goroutine the server spawned.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	conns := make([]transport.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	s.cancel()
	s.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	_ = s.wg.Wait() // ErrStopped means the scheduler already unwound them
}

func (s *Server) acceptLoop(ctx context.Context) {
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.wg.Go(func() { s.serveConn(ctx, c) })
	}
}

// request is one request's goroutine and what it serves, recycled
// through requests once the goroutine is done with it.
type request struct {
	s *Server
	//blobseer:ctx the request's connection context, held only while the request runs: the record is its goroutine's argument list
	ctx  context.Context
	c    transport.Conn
	wmu  *vclock.Mutex
	id   uint64
	req  wire.Msg
	body *[]byte
	run  func() // r.serve, bound once
}

var requests = bufpool.NewPool((*request).reset, (*request).reset)

func (r *request) reset() { *r = request{run: r.run} }

// serveConn reads frames and spawns one goroutine per request so that
// long-blocking handlers (SYNC) do not stall the connection. Every
// request runs under a context cancelled when this connection's read
// loop exits — a client that disconnects mid-request revokes the work it
// asked for.
func (s *Server) serveConn(ctx context.Context, c transport.Conn) {
	cctx, cancel := context.WithCancel(ctx)
	defer func() {
		cancel()
		c.Close()
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
	}()
	// Scheduler-aware: the lock is held across Write, which blocks in
	// virtual time under simnet. A plain sync.Mutex here wedges the
	// simulation when two responses race for the same connection.
	wmu := vclock.NewMutex(s.sched)
	hdr := new([frameHeaderLen]byte)
	for {
		id, kind, body, err := readFrame(c, hdr)
		if err != nil {
			return
		}
		req, err := wire.Decode(kind, *body)
		if err != nil {
			// Cannot trust the stream after a decode error.
			bufpool.Put(body)
			return
		}
		// A recycled record whose run was bound when it was made, and Add
		// and Done by hand, not WaitGroup.Go's wrapper: spawning a
		// request allocates nothing.
		r := requests.Get()
		if r.run == nil {
			r.run = r.serve
		}
		r.s, r.ctx, r.c, r.wmu, r.id, r.req, r.body = s, cctx, c, wmu, id, req, body
		s.wg.Add(1)
		s.sched.Go(r.run)
	}
}

// serve is a request's goroutine: it serves the request, then hands
// the record back.
func (r *request) serve() {
	s := r.s
	defer s.wg.Done()
	s.serveRequest(r.ctx, r.c, r.wmu, r.id, r.req, r.body)
	requests.Put(r)
}

// serveRequest runs one request to completion on its own goroutine. It
// owns body, the recycled buffer req was decoded from (req may alias
// it), whatever the response borrowed, and req and resp themselves when
// they are wire.Recyclers, and releases them once the response is
// encoded — the last moment anything can still read any of them — on
// every path.
func (s *Server) serveRequest(ctx context.Context, c transport.Conn, wmu *vclock.Mutex, id uint64, req wire.Msg, body *[]byte) {
	start := s.sched.Now()
	resp := s.dispatch(ctx, req)
	s.histogram(req.Kind()).Observe(s.sched.Now() - start)
	frame := s.responseFrame(id, resp)
	bufpool.Put(body)
	if r, ok := req.(wire.Recycler); ok {
		r.Recycle()
	}
	if b, ok := resp.(Borrower); ok {
		b.Release()
	}
	if r, ok := resp.(wire.Recycler); ok {
		r.Recycle()
	}
	if frame == nil {
		// Even the error response failed to encode: the client's request
		// would dangle forever on a frame we cannot produce, so drop the
		// connection instead of shipping a broken stream.
		c.Close()
		return
	}
	defer bufpool.Put(frame)
	if wmu.Lock() != nil {
		return // scheduler shut down mid-response
	}
	_, werr := c.Write(*frame)
	wmu.Unlock()
	if werr != nil {
		c.Close() // reader will exit and clean up
	}
}

// responseFrame marshals resp — or, when it cannot be framed, an error
// response saying so — into a recycled buffer the caller releases after
// writing it. It returns nil when neither could be encoded.
func (s *Server) responseFrame(id uint64, resp wire.Msg) *[]byte {
	n := wire.BodySize(resp)
	if n > MaxFrameBody {
		n = 0 // appendFrame refuses it; the error response sizes itself
	}
	frame := bufpool.Get(frameHeaderLen + n)
	out, err := appendFrame((*frame)[:0], id, resp)
	if err != nil {
		s.encodeFailures.Add(1)
		if out, err = appendFrame(out, id, errorResp(err)); err != nil {
			s.encodeFailures.Add(1)
			bufpool.Put(frame)
			return nil
		}
	}
	*frame = out
	return frame
}

// histogram returns kind k's latency histogram, making it if need be.
func (s *Server) histogram(k wire.Kind) *obs.Histogram {
	if h := s.latency[k].Load(); h != nil {
		return h
	}
	s.latency[k].CompareAndSwap(nil, new(obs.Histogram))
	return s.latency[k].Load()
}

func (s *Server) dispatch(ctx context.Context, req wire.Msg) wire.Msg {
	resp, err := s.handler.Handle(ctx, req)
	if err != nil {
		return errorResp(err)
	}
	if resp == nil {
		return errorResp(fmt.Errorf("handler returned no response for %v", req.Kind()))
	}
	return resp
}

func errorResp(err error) *wire.ErrorResp {
	var we *wire.Error
	if errors.As(err, &we) {
		return &wire.ErrorResp{Code: we.Code, Msg: we.Msg}
	}
	return &wire.ErrorResp{Code: wire.CodeUnknown, Msg: err.Error()}
}
