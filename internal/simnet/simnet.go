// Package simnet is a flow-level network simulator that stands in for the
// paper's Grid'5000 testbed. It implements transport.Network, so the real
// BlobSeer client and server code runs over it unmodified; only time is
// virtual (package vclock) and bytes move through a bandwidth/latency
// model instead of a switch.
//
// # Model
//
// Every simulated machine ("node") has a full-duplex NIC with independent
// uplink and downlink capacities. Each connection direction with pending
// bytes is a flow, crossing its source's uplink and its destination's
// downlink. Links are shared max-min fairly, the fixed point TCP's
// congestion control approximates: every flow's rate rises together
// until a link saturates, the flows crossing it stay at that rate, and
// the rest keep rising with what their links have left (progressive
// filling). A flow held back by one link thus leaves its unused share of
// the other to the flows there: if a node's uplink feeds one receiver
// whose downlink takes a tenth of it and one that takes anything, the
// second gets nine tenths, not half. Rates are recomputed whenever a
// flow starts or stops and in a fixed order, so they repeat to the last
// bit.
//
// Each Write becomes one segment: the writer blocks until the segment
// has drained at the flow rate, and the bytes become readable at the
// destination one propagation latency later. Connections between
// co-located endpoints bypass the NIC through a fast loopback path,
// which models the paper's co-deployment of data providers, metadata
// providers and readers on the same physical nodes (§5).
//
// The defaults mirror the paper's measured figures: 117.5 MB/s TCP
// throughput on the 1 Gbit/s links and 0.1 ms latency.
//
// # Faults
//
// Config.Faults is a seeded plan of link faults — extra delay, reset
// connections, partitions and refused dials — that one seed replays bit
// for bit (see FaultPlan); Net.Partition and Net.Heal cut and restore a
// link by script. Without a plan the network never fails on its own.
package simnet

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"blobseer/internal/transport"
	"blobseer/internal/vclock"
)

// MBps is a convenience multiplier: bytes per second in one MB/s.
const MBps = 1e6

// Config describes the simulated cluster's network characteristics.
type Config struct {
	// LinkBps is each NIC's capacity in bytes/second, per direction.
	// Defaults to 117.5 MB/s, the paper's measured TCP throughput.
	LinkBps float64
	// Latency is the one-way propagation delay. Defaults to 0.1 ms.
	Latency time.Duration
	// LoopbackBps is the rate between co-located endpoints (default 4 GB/s).
	LoopbackBps float64
	// LoopbackLatency is the delay between co-located endpoints
	// (default 25 µs).
	LoopbackLatency time.Duration
	// Faults is the seeded fault plan; the zero value injects none.
	Faults FaultPlan
}

func (c *Config) fillDefaults() {
	if c.LinkBps == 0 {
		c.LinkBps = 117.5 * MBps
	}
	if c.Latency == 0 {
		c.Latency = 100 * time.Microsecond
	}
	if c.LoopbackBps == 0 {
		c.LoopbackBps = 4000 * MBps
	}
	if c.LoopbackLatency == 0 {
		c.LoopbackLatency = 25 * time.Microsecond
	}
}

// Net is a simulated network of nodes. Create with New, then obtain
// per-node transport.Network handles with Host. All methods are safe for
// concurrent use from simulation goroutines.
type Net struct {
	clock *vclock.Virtual
	cfg   Config

	mu          sync.Mutex
	nodes       []*node // in name order
	shares      uint64  // runs of reshareLocked, to mark the flows one run fixed
	sharing     nicHeap // reshareLocked's heap, kept for its storage
	listeners   map[string]*listener
	completions completionHeap // pending segment completions
	armed       bool           // a wake-up watcher is pending
	armedAt     time.Duration  // when the pending watcher fires
	watchGen    uint64
	closed      bool

	conns    map[*conn]struct{}          // established, neither closed nor reset
	dials    map[[2]string]uint64        // dials so far per (dialer, listener) node pair
	cuts     map[[2]string]time.Duration // cut links (see link) and when they heal
	injected []Fault
}

// New builds a simulated network driven by clock.
func New(clock *vclock.Virtual, cfg Config) *Net {
	cfg.fillDefaults()
	return &Net{
		clock:     clock,
		cfg:       cfg,
		listeners: make(map[string]*listener),
		conns:     make(map[*conn]struct{}),
		dials:     make(map[[2]string]uint64),
		cuts:      make(map[[2]string]time.Duration),
	}
}

// node is one simulated machine's NIC: its uplink and its downlink.
type node struct {
	name     string
	up, down nic
}

// nic is one direction of a node's NIC: its capacity and the active flows
// crossing it, in connDir.key order. The rest is reshareLocked's working
// state.
type nic struct {
	node  *node
	bps   float64
	flows []*flow
	left  float64 // capacity not yet given to fixed flows
	open  int     // flows not yet fixed
	share float64 // left / open
	at    int     // index in the heap
}

// Host returns the transport.Network for the named node, creating the
// node with default link capacity on first use. Services listening
// through this handle are addressed as "<name>:<service>".
func (n *Net) Host(name string) *Host {
	n.mu.Lock()
	defer n.mu.Unlock()
	return &Host{net: n, node: n.nodeLocked(name)}
}

// SetNodeBandwidth overrides one node's NIC capacities (bytes/second).
// Flows in progress take the new shares at once.
func (n *Net) SetNodeBandwidth(name string, upBps, downBps float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	nd := n.nodeLocked(name)
	nd.up.bps, nd.down.bps = upBps, downBps
	now := n.clock.Now()
	n.reshareLocked(now)
	n.rearmLocked(now)
}

func (n *Net) nodeLocked(name string) *node {
	i, ok := slices.BinarySearchFunc(n.nodes, name, func(m *node, name string) int { return strings.Compare(m.name, name) })
	if ok {
		return n.nodes[i]
	}
	nd := &node{name: name}
	nd.up = nic{node: nd, bps: n.cfg.LinkBps}
	nd.down = nic{node: nd, bps: n.cfg.LinkBps}
	n.nodes = slices.Insert(n.nodes, i, nd)
	return nd
}

// Host is one node's view of the network; it implements transport.Network.
type Host struct {
	net  *Net
	node *node
}

// Name returns the node name.
func (h *Host) Name() string { return h.node.name }

// Listen implements transport.Network. The service name must be unique on
// the node; the returned listener's address is "<node>:<service>".
func (h *Host) Listen(service string) (transport.Listener, error) {
	if service == "" {
		return nil, errors.New("simnet: empty service name")
	}
	addr := h.node.name + ":" + service
	n := h.net
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, transport.ErrClosed
	}
	if _, dup := n.listeners[addr]; dup {
		return nil, fmt.Errorf("simnet: listen %q: address in use", addr)
	}
	l := &listener{net: n, host: h, addr: addr}
	n.listeners[addr] = l
	return l, nil
}

// Dial implements transport.Network. It charges one round trip of latency
// for connection establishment, after which a refusal drawn by the fault
// plan, or a cut link, fails it with ErrRefused.
func (h *Host) Dial(_ context.Context, addr string) (transport.Conn, error) {
	n := h.net
	n.mu.Lock()
	l, ok := n.listeners[addr]
	var ord uint64
	refused := false
	if ok {
		pair := [2]string{h.node.name, l.host.node.name}
		ord = n.dials[pair]
		n.dials[pair]++
		refused = n.dialRefusedLocked(h.node, l.host.node, ord, n.clock.Now())
	}
	n.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("simnet: dial %q: %w", addr, transport.ErrUnknownAddress)
	}
	lat := n.cfg.Latency
	if h.node == l.host.node {
		lat = n.cfg.LoopbackLatency
	}
	if err := n.clock.Sleep(2 * lat); err != nil { // SYN + SYN/ACK (or RST)
		return nil, err
	}
	n.mu.Lock()
	if refused || n.isCutLocked(h.node.name, l.host.node.name, n.clock.Now()) {
		n.mu.Unlock()
		return nil, fmt.Errorf("simnet: dial %q: %w", addr, ErrRefused)
	}
	client, server := n.newConnPairLocked(h.node, l.host.node, ord)
	n.mu.Unlock()
	if err := l.deliver(server); err != nil {
		client.Close()
		return nil, err
	}
	return client, nil
}

// listener queues inbound connections for Accept.
type listener struct {
	net  *Net
	host *Host
	addr string

	mu      sync.Mutex
	backlog []*endpoint
	waiter  vclock.Event
	closed  bool
}

// Accept implements transport.Listener.
func (l *listener) Accept() (transport.Conn, error) {
	for {
		l.mu.Lock()
		if len(l.backlog) > 0 {
			c := l.backlog[0]
			l.backlog = l.backlog[1:]
			l.mu.Unlock()
			return c, nil
		}
		if l.closed {
			l.mu.Unlock()
			return nil, transport.ErrClosed
		}
		if l.waiter != nil {
			l.mu.Unlock()
			return nil, errors.New("simnet: concurrent Accept on one listener")
		}
		ev := l.net.clock.NewNamedEvent("simnet-accept")
		l.waiter = ev
		l.mu.Unlock()
		if _, err := ev.Wait(nil); err != nil {
			return nil, err
		}
	}
}

func (l *listener) deliver(c *endpoint) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("simnet: dial %q: %w", l.addr, transport.ErrClosed)
	}
	l.backlog = append(l.backlog, c)
	if l.waiter != nil {
		l.waiter.Fire(nil)
		l.waiter = nil
	}
	return nil
}

// Close implements transport.Listener.
func (l *listener) Close() error {
	l.net.mu.Lock()
	delete(l.net.listeners, l.addr)
	l.net.mu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if l.waiter != nil {
		l.waiter.Fire(nil) // Accept loops, sees closed, returns ErrClosed
		l.waiter = nil
	}
	return nil
}

// Addr implements transport.Listener.
func (l *listener) Addr() string { return l.addr }
