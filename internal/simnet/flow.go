package simnet

import (
	"cmp"
	"container/heap"
	"errors"
	"io"
	"math"
	"slices"
	"time"

	"blobseer/internal/vclock"
)

// ErrConnClosed is returned for writes on a closed simulated connection.
var ErrConnClosed = errors.New("simnet: connection closed")

// completionEpsilon treats a segment with less than half a byte left as
// drained, absorbing float64 rounding.
const completionEpsilon = 0.5

// conn is one simulated connection: two independent directions.
type conn struct {
	a2b *connDir
	b2a *connDir
	ord uint64 // the connection's ordinal on its link, from dialer to listener
}

// endpoint is one side's view of a conn, implementing transport.Conn.
type endpoint struct {
	wr *connDir // we write here
	rd *connDir // peer writes here, we read
}

func (e *endpoint) Read(p []byte) (int, error)  { return e.rd.read(p) }
func (e *endpoint) Write(p []byte) (int, error) { return e.wr.write(p) }

// Close shuts down both directions. The peer drains buffered bytes and
// then sees EOF; blocked writers fail with ErrConnClosed.
func (e *endpoint) Close() error {
	e.wr.close()
	e.rd.close()
	n := e.wr.net
	n.mu.Lock()
	delete(n.conns, e.wr.conn)
	n.mu.Unlock()
	return nil
}

// newConnPairLocked creates connection ord between src and dst nodes
// and returns the two endpoints (dialer side first).
func (n *Net) newConnPairLocked(src, dst *node, ord uint64) (*endpoint, *endpoint) {
	c := &conn{ord: ord}
	c.a2b = newConnDir(n, c, src, dst, streamKey(src.name, dst.name, ord, streamDialerWrites))
	c.b2a = newConnDir(n, c, dst, src, streamKey(src.name, dst.name, ord, streamListenerWrites))
	n.conns[c] = struct{}{}
	return &endpoint{wr: c.a2b, rd: c.b2a}, &endpoint{wr: c.b2a, rd: c.a2b}
}

// connDir carries bytes one way. Written segments drain through the flow
// model; drained segments become readable after the propagation latency.
type connDir struct {
	net  *Net
	flow *flow
	conn *conn
	key  uint64 // the fault plan's draw stream for this direction

	// Receiver state, guarded by net.mu.
	recv      []byte
	recvOff   int
	reader    vclock.Event  // blocked reader, if any
	closed    bool          // no more writes; reader drains then EOF
	reset     bool          // reads and writes fail with ErrConnReset
	pending   [][]byte      // segments drained but not yet delivered, in order
	deliverAt time.Duration // when the last pending segment is delivered
	segs      uint64        // segments the fault plan has drawn for
}

func newConnDir(n *Net, c *conn, src, dst *node, key uint64) *connDir {
	d := &connDir{net: n, conn: c, key: key}
	d.flow = &flow{dir: d, src: src, dst: dst, loopback: src == dst}
	return d
}

// flow is the bandwidth-model state of one connection direction. A flow
// is "active" while it has pending segments; its instantaneous rate is
// its max-min fair share of its two links (see reshareLocked). Progress
// is advanced lazily: headRem is valid as of lastAt.
type flow struct {
	dir      *connDir
	src, dst *node
	loopback bool

	segs    []*segment
	headRem float64       // undrained bytes of segs[0], as of lastAt
	lastAt  time.Duration // when headRem was last advanced
	rate    float64       // bytes/second
	active  bool
	gen     uint64 // invalidates stale heap entries
	shared  uint64 // the run of reshareLocked that last fixed its rate
}

// segment is the unit of transfer: one Write call.
type segment struct {
	data   []byte
	writer vclock.Event  // fired when the segment has drained
	extra  time.Duration // latency a fault adds to its delivery
}

// write enqueues p as one segment and blocks until it has drained at the
// simulated rate. It copies p.
func (d *connDir) write(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	n := d.net
	seg := &segment{data: append([]byte(nil), p...), writer: n.clock.NewNamedEvent("simnet-write")}
	n.mu.Lock()
	if d.reset {
		n.mu.Unlock()
		return 0, ErrConnReset
	}
	if d.closed || n.closed {
		n.mu.Unlock()
		return 0, ErrConnClosed
	}
	now := n.clock.Now()
	if wake, reset := n.segmentFaultsLocked(d, seg, now); reset {
		n.mu.Unlock()
		wake.fire()
		return 0, ErrConnReset
	}
	f := d.flow
	f.segs = append(f.segs, seg)
	if !f.active {
		n.activateLocked(f, now)
		n.rearmLocked(now)
	}
	n.mu.Unlock()
	v, err := seg.writer.Wait(nil)
	if err != nil {
		return 0, err
	}
	if e, ok := v.(error); ok {
		return 0, e // the connection closed before the segment drained
	}
	return len(p), nil
}

// read copies delivered bytes into p, blocking while none are available.
func (d *connDir) read(p []byte) (int, error) {
	n := d.net
	for {
		n.mu.Lock()
		if d.reset {
			n.mu.Unlock()
			return 0, ErrConnReset
		}
		if avail := len(d.recv) - d.recvOff; avail > 0 {
			nb := copy(p, d.recv[d.recvOff:])
			d.recvOff += nb
			if d.recvOff == len(d.recv) {
				d.recv = d.recv[:0]
				d.recvOff = 0
			}
			n.mu.Unlock()
			return nb, nil
		}
		if d.closed && len(d.flow.segs) == 0 && len(d.pending) == 0 {
			n.mu.Unlock()
			return 0, io.EOF
		}
		if d.reader != nil {
			n.mu.Unlock()
			return 0, errors.New("simnet: concurrent Read on one connection")
		}
		ev := n.clock.NewNamedEvent("simnet-read")
		d.reader = ev
		n.mu.Unlock()
		if _, err := ev.Wait(nil); err != nil {
			// The simulation stopped; a later close must not fire ev.
			n.mu.Lock()
			if d.reader == ev {
				d.reader = nil
			}
			n.mu.Unlock()
			return 0, err
		}
	}
}

// close marks the direction closed, failing the pending writer and waking
// the reader.
func (d *connDir) close() {
	n := d.net
	n.mu.Lock()
	if d.closed {
		n.mu.Unlock()
		return
	}
	d.closed = true
	f := d.flow
	segs := f.segs
	f.segs = nil
	if f.active {
		now := n.clock.Now()
		n.deactivateLocked(f, now)
		n.rearmLocked(now)
	}
	reader := d.reader
	d.reader = nil
	n.mu.Unlock()
	for _, s := range segs {
		s.writer.Fire(ErrConnClosed)
	}
	if reader != nil {
		reader.Fire(nil) // reader re-checks state, drains, then EOF
	}
}

// ------------------------------------------------------------ engine

// advanceLocked brings a flow's drain progress up to now.
func advanceLocked(f *flow, now time.Duration) {
	if dt := now - f.lastAt; dt > 0 && f.active {
		f.headRem -= f.rate * dt.Seconds()
	}
	f.lastAt = now
}

// activateLocked inserts f into the flow set and reshares the links.
func (n *Net) activateLocked(f *flow, now time.Duration) {
	f.active = true
	f.headRem = float64(len(f.segs[0].data))
	f.lastAt = now
	if f.loopback {
		n.retuneFlowLocked(f, n.cfg.LoopbackBps, now)
		return
	}
	f.rate = 0 // whatever its share, it needs a completion entry
	f.src.up.add(f)
	f.dst.down.add(f)
	n.reshareLocked(now)
}

// deactivateLocked removes f from the flow set and reshares the links.
func (n *Net) deactivateLocked(f *flow, now time.Duration) {
	f.active = false
	f.gen++ // orphan heap entries
	if !f.loopback {
		f.src.up.remove(f)
		f.dst.down.remove(f)
		n.reshareLocked(now)
	}
}

func (l *nic) add(f *flow) {
	i, _ := slices.BinarySearchFunc(l.flows, f.dir.key, func(g *flow, key uint64) int { return cmp.Compare(g.dir.key, key) })
	l.flows = slices.Insert(l.flows, i, f)
}

func (l *nic) remove(f *flow) {
	l.flows = slices.DeleteFunc(l.flows, func(g *flow) bool { return g == f })
}

// reshareLocked gives every active flow between nodes its max-min fair
// rate by progressive filling, and retunes each flow whose rate moved.
// The link with the smallest fair share — what it has left over the
// flows on it not yet fixed — fixes those flows at that share; each of
// them then takes its share off its other link, whose own fair share can
// only grow; repeat. Links come off the heap by share, then node name,
// uplink first, and a link's flows in connDir.key order, so the float
// arithmetic, and with it every rate, repeats run after run.
func (n *Net) reshareLocked(now time.Duration) {
	n.shares++
	h := n.sharing[:0]
	for _, nd := range n.nodes {
		for _, l := range [...]*nic{&nd.up, &nd.down} {
			if l.left, l.open = l.bps, len(l.flows); l.open > 0 {
				l.share, l.at = l.left/float64(l.open), len(h)
				h = append(h, l)
			}
		}
	}
	heap.Init(&h)
	for h.Len() > 0 {
		l := heap.Pop(&h).(*nic)
		for _, f := range l.flows {
			if f.shared == n.shares {
				continue
			}
			f.shared = n.shares
			other := &f.dst.down
			if other == l {
				other = &f.src.up
			}
			if other.left, other.open = other.left-l.share, other.open-1; other.open > 0 {
				other.share = other.left / float64(other.open)
				heap.Fix(&h, other.at)
			} else {
				heap.Remove(&h, other.at)
			}
			if f.rate != l.share {
				n.retuneFlowLocked(f, l.share, now)
			}
		}
	}
	n.sharing = h
}

// retuneFlowLocked advances g at its old rate, gives it rate and pushes
// a fresh completion entry.
func (n *Net) retuneFlowLocked(g *flow, rate float64, now time.Duration) {
	advanceLocked(g, now)
	g.rate = rate
	g.gen++
	heap.Push(&n.completions, completionEntry{
		at:  now + drainTime(g.headRem, g.rate),
		f:   g,
		gen: g.gen,
	})
}

// nicHeap orders the links reshareLocked has yet to fix by fair share,
// then node name, uplink first.
type nicHeap []*nic

func (h nicHeap) Len() int { return len(h) }
func (h nicHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	if a.share != b.share {
		return a.share < b.share
	}
	if a.node != b.node {
		return a.node.name < b.node.name
	}
	return a == &a.node.up
}
func (h nicHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].at, h[j].at = i, j
}
func (h *nicHeap) Push(x interface{}) {
	l := x.(*nic)
	l.at = len(*h)
	*h = append(*h, l)
}
func (h *nicHeap) Pop() interface{} {
	old := *h
	l := old[len(old)-1]
	*h = old[:len(old)-1]
	return l
}

// drainTime converts remaining bytes at a rate into a duration, rounding
// up to a whole nanosecond. The floor of 1ns matters: very fast loopback
// flows can drain in sub-nanosecond simulated time, and a zero here would
// schedule the completion at the current instant, spinning the pump loop
// forever.
func drainTime(rem, rate float64) time.Duration {
	if rem <= 0 {
		return time.Nanosecond
	}
	d := time.Duration(math.Ceil(rem / rate * float64(time.Second)))
	if d < time.Nanosecond {
		return time.Nanosecond
	}
	return d
}

// pumpLocked processes due completions at sim time now. Completing a
// segment can deactivate flows and retune others, pushing new entries;
// the loop drains everything due before rearming.
func (n *Net) pumpLocked(now time.Duration) {
	for len(n.completions) > 0 {
		top := n.completions[0]
		if top.gen != top.f.gen || !top.f.active {
			heap.Pop(&n.completions)
			continue
		}
		if top.at > now {
			break
		}
		heap.Pop(&n.completions)
		f := top.f
		advanceLocked(f, now)
		if f.headRem > completionEpsilon {
			// Rounding: not quite done; retry a hair later.
			f.gen++
			heap.Push(&n.completions, completionEntry{
				at: now + drainTime(f.headRem, f.rate), f: f, gen: f.gen,
			})
			continue
		}
		seg := f.segs[0]
		f.segs = f.segs[1:]
		n.scheduleDeliveryLocked(f.dir, seg, now)
		seg.writer.Fire(nil)
		if len(f.segs) == 0 {
			n.deactivateLocked(f, now)
		} else {
			// Same flow set: the rate is unchanged, only the head moves.
			f.headRem = float64(len(f.segs[0].data))
			f.lastAt = now
			f.gen++
			heap.Push(&n.completions, completionEntry{
				at: now + drainTime(f.headRem, f.rate), f: f, gen: f.gen,
			})
		}
	}
}

// rearmLocked makes sure a wake-up is scheduled for the earliest pending
// completion.
func (n *Net) rearmLocked(now time.Duration) {
	// Drop stale heads so the watcher targets a live entry.
	for len(n.completions) > 0 {
		top := n.completions[0]
		if top.gen != top.f.gen || !top.f.active {
			heap.Pop(&n.completions)
			continue
		}
		break
	}
	if len(n.completions) == 0 {
		return
	}
	at := n.completions[0].at
	if n.armed && n.armedAt <= at {
		return // an earlier or equal watcher is already pending
	}
	n.armed = true
	n.armedAt = at
	n.watchGen++
	gen := n.watchGen
	delay := at - now
	if delay <= 0 {
		delay = time.Nanosecond
	}
	ev := n.clock.NewNamedEvent("simnet-pump")
	n.clock.FireAt(ev, delay)
	//blobseer:goroutine detached the pump parks only on its own FireAt timer, which the virtual clock always delivers (or force-fails at Stop), so it cannot outlive the simulation it belongs to
	n.clock.Go(func() {
		if _, err := ev.Wait(nil); err != nil {
			return // simulation stopped
		}
		n.mu.Lock()
		defer n.mu.Unlock()
		if n.closed {
			return
		}
		if gen == n.watchGen {
			n.armed = false
		}
		nowInner := n.clock.Now()
		n.pumpLocked(nowInner)
		n.rearmLocked(nowInner)
	})
}

// scheduleDeliveryLocked makes a drained segment readable at dst after
// the propagation latency plus any delay a fault added, and never before
// the segments ahead of it. Each delivery timer hands over the oldest
// pending segment, so segments due at the same instant keep their order.
func (n *Net) scheduleDeliveryLocked(d *connDir, seg *segment, now time.Duration) {
	lat := n.cfg.Latency
	if d.flow.loopback {
		lat = n.cfg.LoopbackLatency
	}
	d.deliverAt = max(d.deliverAt, now+lat+seg.extra)
	d.pending = append(d.pending, seg.data)
	ev := n.clock.NewNamedEvent("simnet-deliver")
	n.clock.FireAt(ev, d.deliverAt-now)
	//blobseer:goroutine detached the delivery parks only on its own FireAt timer, which the virtual clock always delivers (or force-fails at Stop), so it cannot outlive the simulation it belongs to
	n.clock.Go(func() {
		if _, err := ev.Wait(nil); err != nil {
			return
		}
		n.mu.Lock()
		if len(d.pending) == 0 { // a reset dropped it
			n.mu.Unlock()
			return
		}
		d.recv = append(d.recv, d.pending[0]...)
		d.pending[0] = nil
		d.pending = d.pending[1:]
		reader := d.reader
		d.reader = nil
		n.mu.Unlock()
		if reader != nil {
			reader.Fire(nil)
		}
	})
}

// completionEntry is a heap record: flow f's head segment finishes at
// time at, unless gen says the entry went stale.
type completionEntry struct {
	at  time.Duration
	f   *flow
	gen uint64
}

// completionHeap orders entries by time, then by connection direction:
// which of two flows due at the same instant completes first decides
// which one a retune pushes a nanosecond later, so the order must not
// depend on the order the entries were pushed in.
type completionHeap []completionEntry

func (h completionHeap) Len() int { return len(h) }
func (h completionHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].f.dir.key < h[j].f.dir.key
}
func (h completionHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *completionHeap) Push(x interface{}) { *h = append(*h, x.(completionEntry)) }
func (h *completionHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Close tears the whole network down; all blocked operations fail.
func (n *Net) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	var writers []vclock.Event
	var readers []vclock.Event
	seen := map[*connDir]struct{}{}
	collect := func(f *flow) {
		if _, ok := seen[f.dir]; ok {
			return
		}
		seen[f.dir] = struct{}{}
		for _, s := range f.segs {
			writers = append(writers, s.writer)
		}
		f.segs = nil
		f.active = false
		if r := f.dir.reader; r != nil {
			readers = append(readers, r)
			f.dir.reader = nil
		}
		f.dir.closed = true
	}
	for _, nd := range n.nodes {
		for _, f := range nd.up.flows {
			collect(f)
		}
		for _, f := range nd.down.flows {
			collect(f)
		}
	}
	for _, e := range n.completions {
		collect(e.f)
	}
	n.completions = nil
	listeners := make([]*listener, 0, len(n.listeners))
	for _, l := range n.listeners {
		listeners = append(listeners, l)
	}
	n.mu.Unlock()
	for _, w := range writers {
		w.Fire(ErrConnClosed)
	}
	for _, r := range readers {
		r.Fire(nil)
	}
	for _, l := range listeners {
		l.Close()
	}
}
