package simnet

import (
	"cmp"
	"errors"
	"slices"
	"time"

	"blobseer/internal/vclock"
)

// ErrConnReset is returned by reads and writes on a connection that a
// fault or a partition reset. Unlike a close, a reset discards what the
// peer has not read yet.
var ErrConnReset = errors.New("simnet: connection reset")

// ErrRefused is returned by a dial that a fault or a partition refused.
var ErrRefused = errors.New("simnet: connection refused")

// FaultPlan is a seeded plan of network faults on the links between
// distinct nodes; co-located endpoints never fail. The zero value
// injects nothing, and neither does a plan whose probabilities are all
// zero: the network then behaves exactly as without one.
//
// Every decision is a draw from one generator seeded by Seed. A draw is
// addressed by where it is made — the link, the connection's ordinal on
// it, the direction and the segment's ordinal, or the dial's ordinal on
// the link — rather than taken from one shared sequence: goroutines
// woken at the same virtual instant run in parallel, and a sequence
// would hand them draws in whatever order they reached it. So one seed
// and one workload inject the same faults at the same virtual times,
// run after run.
type FaultPlan struct {
	Seed uint64
	// Delay is the probability that a segment (one Write) arrives late,
	// by an extra latency drawn uniformly from (0, MaxDelay]. Later
	// segments of its connection wait behind it: a connection stays in
	// order.
	Delay    float64
	MaxDelay time.Duration
	// Reset is the probability that a Write resets its connection
	// instead of carrying its segment.
	Reset float64
	// Partition is the probability that a Write cuts its link for
	// PartitionFor, as Net.Partition does, failing with ErrConnReset.
	Partition    float64
	PartitionFor time.Duration
	// Refuse is the probability that a dial is refused.
	Refuse float64
}

func (p *FaultPlan) active() bool {
	return p.Delay > 0 || p.Reset > 0 || p.Partition > 0 || p.Refuse > 0
}

// draw returns variate i, uniform in [0, 1), of the stream named key.
func (p *FaultPlan) draw(key, i uint64) float64 {
	return float64(mix(p.Seed^mix(key^mix(i)))>>11) / (1 << 53)
}

// mix is the splitmix64 step: a bijection that scatters its input.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// Draw streams: a dial, and the two directions of a connection.
const (
	streamDial = iota
	streamDialerWrites
	streamListenerWrites
)

// streamKey names a draw stream by link, ordinal on the link and kind.
func streamKey(src, dst string, ord uint64, stream uint64) uint64 {
	h := uint64(14695981039346656037) // FNV-1a over "src\x00dst"
	for _, s := range [...]string{src, "\x00", dst} {
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * 1099511628211
		}
	}
	return mix(h ^ mix(ord<<2|stream))
}

// Fault is one injected fault, as Net.Injected reports it.
type Fault struct {
	At   time.Duration // virtual time
	Kind string        // "delay", "reset", "partition", "heal" or "refuse"
	// Src and Dst name the link: the writer (or dialer) first.
	Src, Dst string
	// Conn is the ordinal of the connection (or dial) on the link, from
	// dialer to listener; Seg the segment's ordinal in its direction.
	// Both are zero for a scripted Partition or Heal.
	Conn, Seg uint64
	Delay     time.Duration // the extra latency of a "delay"
}

// Injected returns every fault injected so far, scripted cuts and heals
// included, in a canonical order: by time, then by link, connection,
// segment and kind.
func (n *Net) Injected() []Fault {
	n.mu.Lock()
	out := slices.Clone(n.injected)
	n.mu.Unlock()
	slices.SortFunc(out, func(a, b Fault) int {
		return cmp.Or(cmp.Compare(a.At, b.At), cmp.Compare(a.Src, b.Src), cmp.Compare(a.Dst, b.Dst),
			cmp.Compare(a.Conn, b.Conn), cmp.Compare(a.Seg, b.Seg), cmp.Compare(a.Kind, b.Kind),
			cmp.Compare(a.Delay, b.Delay))
	})
	return out
}

// link names the link between two nodes, in either direction.
func link(a, b string) [2]string {
	if b < a {
		a, b = b, a
	}
	return [2]string{a, b}
}

// Partition cuts the link between nodes a and b until Heal: every
// established connection between them is reset and every dial across
// the link is refused.
func (n *Net) Partition(a, b string) {
	n.mu.Lock()
	now := n.clock.Now()
	n.injected = append(n.injected, Fault{At: now, Kind: "partition", Src: a, Dst: b})
	wake := n.cutLocked(a, b, forever, now)
	n.mu.Unlock()
	wake.fire()
}

// Heal restores the link between nodes a and b, whether Partition or
// the fault plan cut it. New dials succeed again; connections the cut
// reset stay reset.
func (n *Net) Heal(a, b string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.injected = append(n.injected, Fault{At: n.clock.Now(), Kind: "heal", Src: a, Dst: b})
	delete(n.cuts, link(a, b))
}

const forever = time.Duration(1<<63 - 1)

// cutLocked cuts the link between a and b until the virtual time until
// (keeping a longer cut already in place) and resets every connection
// across it.
func (n *Net) cutLocked(a, b string, until, now time.Duration) wakeups {
	l := link(a, b)
	if until > n.cuts[l] {
		n.cuts[l] = until
	}
	var wake wakeups
	for c := range n.conns {
		f := c.a2b.flow
		if link(f.src.name, f.dst.name) == l {
			wake = n.resetLocked(c, now, wake)
		}
	}
	return wake
}

// isCutLocked reports whether the link between a and b is cut at now.
func (n *Net) isCutLocked(a, b string, now time.Duration) bool {
	until, ok := n.cuts[link(a, b)]
	return ok && now < until
}

// resetLocked resets both directions of c: queued and undelivered
// segments are dropped, unread bytes discarded, and blocked writers and
// readers woken (by the returned wakeups, fired once n.mu is released)
// to fail with ErrConnReset.
func (n *Net) resetLocked(c *conn, now time.Duration, wake wakeups) wakeups {
	delete(n.conns, c)
	for _, d := range [...]*connDir{c.a2b, c.b2a} {
		d.reset, d.closed = true, true
		f := d.flow
		for _, s := range f.segs {
			wake = append(wake, wakeup{s.writer, ErrConnReset})
		}
		f.segs = nil
		if f.active {
			n.deactivateLocked(f, now)
		}
		d.pending = nil
		d.recv, d.recvOff = nil, 0
		if d.reader != nil {
			wake = append(wake, wakeup{d.reader, nil})
			d.reader = nil
		}
	}
	n.rearmLocked(now)
	return wake
}

// wakeup is an event to fire once n.mu is released.
type wakeup struct {
	ev vclock.Event
	v  any
}

type wakeups []wakeup

func (w wakeups) fire() {
	for _, u := range w {
		u.ev.Fire(u.v)
	}
}

// segmentFaultsLocked draws the plan's faults for the next segment
// written to d: a delay is set on seg; a reset or a cut resets the
// connection, and the write must fail with ErrConnReset.
func (n *Net) segmentFaultsLocked(d *connDir, seg *segment, now time.Duration) (wakeups, bool) {
	p := &n.cfg.Faults
	f := d.flow
	if f.loopback || !p.active() {
		return nil, false
	}
	k := d.segs
	d.segs++
	fault := Fault{At: now, Src: f.src.name, Dst: f.dst.name, Conn: d.conn.ord, Seg: k}
	switch {
	case p.draw(d.key, 4*k) < p.Partition:
		fault.Kind = "partition"
		n.injected = append(n.injected, fault)
		return n.cutLocked(f.src.name, f.dst.name, now+p.PartitionFor, now), true
	case p.draw(d.key, 4*k+1) < p.Reset:
		fault.Kind = "reset"
		n.injected = append(n.injected, fault)
		return n.resetLocked(d.conn, now, nil), true
	case p.draw(d.key, 4*k+2) < p.Delay:
		seg.extra = min(p.MaxDelay, 1+time.Duration(p.draw(d.key, 4*k+3)*float64(p.MaxDelay)))
		fault.Kind, fault.Delay = "delay", seg.extra
		n.injected = append(n.injected, fault)
	}
	return nil, false
}

// dialRefusedLocked draws whether dial ord from src to dst is refused.
func (n *Net) dialRefusedLocked(src, dst *node, ord uint64, now time.Duration) bool {
	p := &n.cfg.Faults
	if src == dst || p.Refuse <= 0 || p.draw(streamKey(src.name, dst.name, ord, streamDial), 0) >= p.Refuse {
		return false
	}
	n.injected = append(n.injected, Fault{At: now, Kind: "refuse", Src: src.name, Dst: dst.name, Conn: ord})
	return true
}
