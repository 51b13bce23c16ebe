package rpc

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"
	"time"

	"blobseer/internal/bufpool"
	"blobseer/internal/transport"
	"blobseer/internal/vclock"
	"blobseer/internal/wire"
)

// ErrClientClosed is returned by calls issued after Client.Close.
var ErrClientClosed = errors.New("rpc: client closed")

// ErrConnBroken is returned for calls that were in flight when their
// connection failed. Callers decide whether the operation is safe to
// retry; the rpc layer never retries on its own.
var ErrConnBroken = errors.New("rpc: connection broken")

// Client issues requests to any number of peers, multiplexing concurrent
// calls over one connection per peer. It is safe for concurrent use.
//
//blobseer:lockorder latMu
type Client struct {
	net   transport.Network
	sched vclock.Scheduler
	wg    *vclock.WaitGroup // joins per-connection read loops on Close

	mu     sync.Mutex
	pools  map[string]*pool
	closed bool

	// latMu guards lat. It is a leaf lock: held only inside observe and
	// LatencyQuantile, never across a call or another acquisition.
	latMu sync.Mutex
	lat   map[string]*hostLatency
}

// latencySamples is the per-host ring size: enough history for a stable
// tail estimate, small enough that one slow burst ages out quickly.
const latencySamples = 64

// minLatencySamples is how many completed calls a host needs before
// LatencyQuantile reports anything; below it the tail estimate is noise.
const minLatencySamples = 8

// hostLatency is a ring of recent call durations to one peer, kept in
// two forms: insertion order (so the oldest sample can be retired) and
// ascending order (so quantile reads are a single index). The sorted
// view is maintained incrementally in observe — one binary search and
// memmove per completed call — keeping LatencyQuantile free of
// allocation and sorting on the read hot path.
type hostLatency struct {
	samples [latencySamples]time.Duration // insertion order
	sorted  [latencySamples]time.Duration // same n values, ascending
	n       int                           // filled entries
	next    int                           // ring cursor
}

// NewClient builds a Client over the given transport and scheduler.
func NewClient(net transport.Network, sched vclock.Scheduler) *Client {
	return &Client{
		net:   net,
		sched: sched,
		wg:    vclock.NewWaitGroup(sched),
		pools: make(map[string]*pool),
	}
}

// Call sends req to addr and waits for the matching response. A response
// of kind ErrorResp is converted to a *wire.Error. Transport failures
// surface as ErrConnBroken (wrapped); the caller owns retry policy, and
// ctx bounds the dial and the round trip alike.
func (c *Client) Call(ctx context.Context, addr string, req wire.Msg) (wire.Msg, error) {
	cc, err := c.conn(ctx, addr)
	if err != nil {
		return nil, err
	}
	start := c.sched.Now()
	resp, err := cc.roundTrip(ctx, req)
	if err != nil {
		return nil, fmt.Errorf("rpc: %v to %s: %w", req.Kind(), addr, err)
	}
	// Completed round trips — including ones answered with a protocol
	// error — are latency signal; transport failures are not.
	c.observe(addr, c.sched.Now()-start)
	if e, ok := resp.(*wire.ErrorResp); ok {
		return nil, &wire.Error{Code: e.Code, Msg: e.Msg}
	}
	return resp, nil
}

// observe records one completed round trip to addr.
func (c *Client) observe(addr string, d time.Duration) {
	c.latMu.Lock()
	defer c.latMu.Unlock()
	if c.lat == nil {
		c.lat = make(map[string]*hostLatency)
	}
	h := c.lat[addr]
	if h == nil {
		h = &hostLatency{}
		c.lat[addr] = h
	}
	if h.n == latencySamples {
		// Retire the sample the ring is about to overwrite.
		old := h.samples[h.next]
		i := sort.Search(h.n, func(i int) bool { return h.sorted[i] >= old })
		copy(h.sorted[i:], h.sorted[i+1:h.n])
		h.n--
	}
	i := sort.Search(h.n, func(i int) bool { return h.sorted[i] > d })
	copy(h.sorted[i+1:h.n+1], h.sorted[i:h.n])
	h.sorted[i] = d
	h.n++
	h.samples[h.next] = d
	h.next = (h.next + 1) % latencySamples
}

// LatencyQuantile reports the q-quantile (0 ≤ q ≤ 1) over the most
// recent completed calls to addr. It returns ok=false until enough
// calls have completed for the estimate to mean anything; hedging
// policies treat that as "no signal yet" and keep adaptive hedging off
// for that replica set until samples accumulate (hard-error failover
// still covers the cold window). Durations come from the scheduler
// clock, so the estimate is deterministic under simnet's virtual time.
func (c *Client) LatencyQuantile(addr string, q float64) (time.Duration, bool) {
	c.latMu.Lock()
	defer c.latMu.Unlock()
	h := c.lat[addr]
	if h == nil || h.n < minLatencySamples {
		return 0, false
	}
	idx := int(q * float64(h.n-1))
	if idx < 0 {
		idx = 0
	}
	if idx >= h.n {
		idx = h.n - 1
	}
	return h.sorted[idx], true
}

// Close tears down every pooled connection and joins every read loop.
// In-flight calls fail with ErrConnBroken.
func (c *Client) Close() {
	c.mu.Lock()
	pools := c.pools
	c.pools = nil
	c.closed = true
	c.mu.Unlock()
	for _, p := range pools {
		p.close()
	}
	_ = c.wg.Wait() // ErrStopped means the scheduler already unwound them
}

// conn returns a live connection to addr, dialing if there is none.
func (c *Client) conn(ctx context.Context, addr string) (*clientConn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClientClosed
	}
	p := c.pools[addr]
	if p == nil {
		p = &pool{client: c, addr: addr}
		c.pools[addr] = p
	}
	c.mu.Unlock()
	return p.pick(ctx)
}

// pool holds the one connection to a peer.
type pool struct {
	client *Client
	addr   string

	mu sync.Mutex
	cc *clientConn // nil until dialled, and again once broken
	// dialing is set while a dial to the peer is in flight.
	dialing bool
	// waiters are callers that found the dial in flight; each is fired
	// when it resolves, with the dial's error if it failed.
	waiters []vclock.Event
	closed  bool
}

// pick returns the connection to the peer, dialling it if there is none
// or it broke. Concurrent first calls share one dial: a caller that finds
// it in flight waits for it to resolve. A dial that fails takes the
// callers parked on it down with it — they would only meet the same dead
// peer one after another, each until its own deadline — and the next
// call dials afresh.
func (p *pool) pick(ctx context.Context) (*clientConn, error) {
	for {
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			return nil, ErrClientClosed
		}
		if p.cc != nil && p.cc.isBroken() {
			p.cc = nil
		}
		if cc := p.cc; cc != nil {
			p.mu.Unlock()
			return cc, nil
		}
		if !p.dialing {
			p.dialing = true
			p.mu.Unlock()
			return p.dial(ctx)
		}
		ev := p.client.sched.NewEvent()
		p.waiters = append(p.waiters, ev)
		p.mu.Unlock()
		v, err := ev.Wait(ctx)
		if err != nil {
			return nil, err
		}
		if dialErr, failed := v.(error); failed {
			return nil, dialErr
		}
	}
}

// dial connects to the peer for the caller that set dialing, and hands
// the outcome to everyone waiting on it.
func (p *pool) dial(ctx context.Context) (*clientConn, error) {
	raw, err := p.client.net.Dial(ctx, p.addr)
	var cc *clientConn
	p.mu.Lock()
	p.dialing = false
	if err == nil && p.closed {
		err = ErrClientClosed
	}
	if err == nil {
		cc = newClientConn(raw, p.client.sched, p.client.wg)
		p.cc = cc
	}
	waiters := p.waiters
	p.waiters = nil
	p.mu.Unlock()
	// A dial abandoned because its own caller gave up says nothing about
	// the peer: the waiters look again instead of inheriting that.
	var verdict any
	if err != nil && (ctx == nil || ctx.Err() == nil) {
		verdict = err
	}
	for _, ev := range waiters {
		ev.Fire(verdict)
	}
	if cc == nil && raw != nil {
		raw.Close()
	}
	return cc, err
}

func (p *pool) close() {
	p.mu.Lock()
	cc := p.cc
	p.cc = nil
	p.closed = true
	p.mu.Unlock()
	if cc != nil {
		cc.fail(ErrClientClosed)
	}
}

// clientConn is one multiplexed connection: many goroutines write frames
// under wmu; a single reader goroutine dispatches responses by request id.
type clientConn struct {
	raw   transport.Conn
	sched vclock.Scheduler

	wmu *vclock.Mutex // serializes frame writes; scheduler-aware because
	// it is held across Write, which blocks in virtual time under simnet
	wbuf []byte

	mu      sync.Mutex
	pending map[uint64]vclock.Event
	nextID  uint64
	broken  error
}

func newClientConn(raw transport.Conn, sched vclock.Scheduler, wg *vclock.WaitGroup) *clientConn {
	cc := &clientConn{
		raw:     raw,
		sched:   sched,
		wmu:     vclock.NewMutex(sched),
		pending: make(map[uint64]vclock.Event),
	}
	// Joined by the owning Client: pool.close fails the connection, which
	// makes readFrame return, and Client.Close waits on wg after that.
	wg.Go(cc.readLoop)
	return cc
}

func (cc *clientConn) isBroken() bool {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.broken != nil
}

// roundTrip sends req and waits for its response.
func (cc *clientConn) roundTrip(ctx context.Context, req wire.Msg) (wire.Msg, error) {
	ev := cc.sched.NewEvent()
	cc.mu.Lock()
	if cc.broken != nil {
		err := cc.broken
		cc.mu.Unlock()
		return nil, err
	}
	cc.nextID++
	id := cc.nextID
	cc.pending[id] = ev
	cc.mu.Unlock()

	err := cc.wmu.Lock()
	if err == nil {
		// Marshalled in place into the connection's own buffer, which is
		// kept (grown) for the next frame: a request costs no allocation.
		var encErr error
		if cc.wbuf, encErr = appendFrame(cc.wbuf[:0], id, req); encErr != nil {
			cc.wmu.Unlock()
			cc.forget(id)
			return nil, encErr // nothing reached the wire: only this call fails
		}
		_, err = cc.raw.Write(cc.wbuf)
		cc.wmu.Unlock()
	}
	if err != nil {
		cc.forget(id)
		cc.fail(err)
		return nil, fmt.Errorf("%w: %v", ErrConnBroken, err)
	}

	v, err := ev.Wait(ctx)
	if err != nil {
		// Context cancellation (Real scheduler only): orphan the pending
		// entry so a late response is dropped instead of misdelivered.
		cc.forget(id)
		return nil, err
	}
	switch r := v.(type) {
	case wire.Msg:
		return r, nil
	case error:
		return nil, r
	default:
		return nil, fmt.Errorf("rpc: bad event payload %T", v)
	}
}

// forget drops the pending entry of a call that will not be answered.
func (cc *clientConn) forget(id uint64) {
	cc.mu.Lock()
	delete(cc.pending, id)
	cc.mu.Unlock()
}

// readLoop dispatches inbound frames to their waiting callers.
func (cc *clientConn) readLoop() {
	for {
		id, kind, body, err := readFrame(cc.raw)
		if err != nil {
			cc.fail(fmt.Errorf("%w: %v", ErrConnBroken, err))
			return
		}
		cc.mu.Lock()
		ev, ok := cc.pending[id]
		delete(cc.pending, id)
		cc.mu.Unlock()
		if !ok {
			// Nobody waits: the caller abandoned the request after a
			// context cancellation (every hedge loser does). Framing is
			// length-prefixed, so the body goes back undecoded — decoding
			// would copy every page it carries only to drop them.
			bufpool.Put(body)
			continue
		}
		// Responses decode by copy, so the recycled body is done with
		// here whether or not it decoded.
		msg, err := wire.Decode(kind, *body)
		bufpool.Put(body)
		if err != nil {
			// The stream cannot be trusted past this point. The caller is
			// no longer in pending, so fail would miss it.
			err = fmt.Errorf("%w: %v", ErrConnBroken, err)
			ev.Fire(err)
			cc.fail(err)
			return
		}
		ev.Fire(msg)
	}
}

// fail marks the connection broken and fails all in-flight calls, in
// the order they were issued: under a virtual clock the callers resume in
// the order their events fire, so a run that breaks a connection replays
// the same way every time.
func (cc *clientConn) fail(cause error) {
	cc.mu.Lock()
	if cc.broken != nil {
		cc.mu.Unlock()
		return
	}
	cc.broken = cause
	pending := cc.pending
	cc.pending = make(map[uint64]vclock.Event)
	cc.mu.Unlock()
	cc.raw.Close()
	for _, id := range slices.Sorted(maps.Keys(pending)) {
		pending[id].Fire(cause)
	}
}
