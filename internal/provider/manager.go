package provider

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"blobseer/internal/rpc"
	"blobseer/internal/transport"
	"blobseer/internal/vclock"
	"blobseer/internal/wire"
)

// ManagerConfig configures the provider manager.
type ManagerConfig struct {
	// Sched drives expiry checks; defaults to the real clock.
	Sched vclock.Scheduler
	// Expiry drops providers that have not heartbeated for this long.
	// Zero disables expiry (useful under the simulated clock where
	// providers never crash unless the harness kills them).
	Expiry time.Duration
}

// registryStripes shards the id-to-entry lookup map, the same pattern as
// the version manager's blob registry: heartbeats — the hot, frequent
// path once hundreds of providers beat every few seconds — take only
// their stripe's read lock plus atomic stores, so they never serialize
// behind an Allocate planning placements.
const registryStripes = 16

// Manager is the provider manager service: the directory of live data
// providers and the page placement policy — round-robin over providers
// in registration order, the paper's "even distribution of pages among
// providers" (§3.1).
//
// Concurrency regime: the entry registry is striped with RW locks and
// each entry's mutable load statistics are atomics, so heartbeats touch
// nothing global. Membership and placement (registration order,
// round-robin cursor) stay behind a single allocMu — allocation is
// inherently a global decision — which is taken only by register,
// allocate, list and expiry. Lock order: allocMu, then a stripe lock; a
// stripe lock is never held while acquiring allocMu.
type Manager struct {
	cfg   ManagerConfig
	sched vclock.Scheduler
	srv   *rpc.Server

	stripes [registryStripes]registryStripe

	allocMu sync.Mutex
	byAddr  map[string]uint32
	order   []uint32 // registration order, for round-robin
	nextID  uint32
	rr      int
}

type registryStripe struct {
	mu      sync.RWMutex
	entries map[uint32]*entry
}

// entry is one registered provider. addr and id are immutable after
// creation; the load statistics are atomics written by heartbeats
// without any manager-wide lock.
type entry struct {
	id       uint32
	addr     string
	pages    atomic.Uint64
	bytes    atomic.Uint64
	lastSeen atomic.Int64 // sched.Now(), as nanoseconds
}

// ServeManager starts the provider manager on ln.
func ServeManager(ln transport.Listener, cfg ManagerConfig) *Manager {
	if cfg.Sched == nil {
		cfg.Sched = vclock.NewReal()
	}
	m := &Manager{
		cfg:    cfg,
		sched:  cfg.Sched,
		byAddr: make(map[string]uint32),
	}
	for i := range m.stripes {
		m.stripes[i].entries = make(map[uint32]*entry)
	}
	m.srv = rpc.Serve(ln, cfg.Sched, m.mux())
	return m
}

// Addr returns the manager's service address.
func (m *Manager) Addr() string { return m.srv.Addr() }

// Close stops the service.
func (m *Manager) Close() { m.srv.Close() }

func (m *Manager) stripe(id uint32) *registryStripe {
	return &m.stripes[id%registryStripes]
}

// lookup returns the entry for id, or nil. Safe without allocMu.
func (m *Manager) lookup(id uint32) *entry {
	s := m.stripe(id)
	s.mu.RLock()
	e := s.entries[id]
	s.mu.RUnlock()
	return e
}

// ProviderCount returns the number of live providers.
func (m *Manager) ProviderCount() int {
	m.allocMu.Lock()
	defer m.allocMu.Unlock()
	m.expireLocked()
	return len(m.order)
}

func (m *Manager) mux() *rpc.Mux {
	mux := rpc.NewMux()
	mux.Register(wire.KindPingReq, func(_ context.Context, msg wire.Msg) (wire.Msg, error) {
		return &wire.PingResp{Nonce: msg.(*wire.PingReq).Nonce}, nil
	})
	mux.Register(wire.KindRegisterReq, func(_ context.Context, msg wire.Msg) (wire.Msg, error) {
		req := msg.(*wire.RegisterReq)
		if req.Addr == "" {
			return nil, wire.NewError(wire.CodeBadRequest, "empty provider address")
		}
		return &wire.RegisterResp{ID: m.register(req.Addr)}, nil
	})
	mux.Register(wire.KindHeartbeatReq, func(_ context.Context, msg wire.Msg) (wire.Msg, error) {
		req := msg.(*wire.HeartbeatReq)
		return &wire.HeartbeatResp{Known: m.heartbeat(req)}, nil
	})
	mux.Register(wire.KindAllocateReq, func(_ context.Context, msg wire.Msg) (wire.Msg, error) {
		req := msg.(*wire.AllocateReq)
		addrs, err := m.Allocate(int(req.N), int(req.Copies))
		if err != nil {
			return nil, err
		}
		return &wire.AllocateResp{Addrs: addrs}, nil
	})
	mux.Register(wire.KindListProvidersReq, func(context.Context, wire.Msg) (wire.Msg, error) {
		return m.list(), nil
	})
	return mux
}

func (m *Manager) register(addr string) uint32 {
	m.allocMu.Lock()
	defer m.allocMu.Unlock()
	if id, ok := m.byAddr[addr]; ok {
		// byAddr and the stripes mutate together under allocMu, so the
		// entry is always present.
		e := m.lookup(id)
		e.lastSeen.Store(int64(m.sched.Now()))
		return id
	}
	m.nextID++
	id := m.nextID
	e := &entry{id: id, addr: addr}
	e.lastSeen.Store(int64(m.sched.Now()))
	s := m.stripe(id)
	s.mu.Lock()
	s.entries[id] = e
	s.mu.Unlock()
	m.byAddr[addr] = id
	m.order = append(m.order, id)
	return id
}

// heartbeat refreshes one provider's liveness and load. It is the hot
// path under many providers and deliberately takes no manager-wide
// lock: a stripe read lock around the entry update, atomics for the
// fields. Holding the stripe lock across the stores means expiry —
// which re-checks lastSeen under the stripe write lock — can never
// delete an entry whose beat was just acknowledged.
func (m *Manager) heartbeat(req *wire.HeartbeatReq) bool {
	s := m.stripe(req.ID)
	s.mu.RLock()
	e := s.entries[req.ID]
	if e == nil {
		s.mu.RUnlock()
		return false
	}
	e.pages.Store(req.Pages)
	e.bytes.Store(req.Bytes)
	e.lastSeen.Store(int64(m.sched.Now()))
	s.mu.RUnlock()
	return true
}

// Allocate picks providers for n pages with copies replicas each and
// returns n*copies addresses, page i's replicas at positions
// [i*copies, (i+1)*copies). Replicas of one page land on distinct
// providers whenever at least copies providers are live; otherwise the
// group repeats addresses rather than failing (degraded but writable,
// matching the availability-first behaviour of the paper's testbed). When
// n exceeds the provider count, different pages share providers, exactly
// like the paper's experiments where a blob has far more pages than there
// are providers.
func (m *Manager) Allocate(n, copies int) ([]string, error) {
	if n < 0 {
		return nil, wire.NewError(wire.CodeBadRequest, "negative page count")
	}
	if copies < 1 {
		copies = 1
	}
	m.allocMu.Lock()
	defer m.allocMu.Unlock()
	m.expireLocked()
	if len(m.order) == 0 {
		return nil, wire.NewError(wire.CodeUnavailable, "no data providers registered")
	}
	// The next n*copies entries of the ring: any copies consecutive
	// entries — one page's replicas — are distinct providers whenever
	// copies <= len(m.order).
	addrs := make([]string, 0, n*copies)
	for i := 0; i < n*copies; i++ {
		addrs = append(addrs, m.lookup(m.order[m.rr%len(m.order)]).addr)
		m.rr++
	}
	return addrs, nil
}

func (m *Manager) list() *wire.ListProvidersResp {
	m.allocMu.Lock()
	defer m.allocMu.Unlock()
	m.expireLocked()
	resp := &wire.ListProvidersResp{}
	for _, id := range m.order {
		e := m.lookup(id)
		resp.Providers = append(resp.Providers, wire.ProviderInfo{
			Addr: e.addr, Pages: e.pages.Load(), Bytes: e.bytes.Load(),
		})
	}
	return resp
}

// expireLocked drops providers whose heartbeats stopped. Called with
// allocMu held; stripe locks nest inside it.
func (m *Manager) expireLocked() {
	if m.cfg.Expiry <= 0 {
		return
	}
	cutoff := int64(m.sched.Now()) - int64(m.cfg.Expiry)
	keep := m.order[:0]
	for _, id := range m.order {
		e := m.lookup(id)
		expired := false
		if e.lastSeen.Load() < cutoff {
			s := m.stripe(id)
			s.mu.Lock()
			// Re-check under the stripe write lock: a heartbeat holds the
			// read lock across its stores, so a beat acknowledged before
			// this point is visible here and saves the entry.
			if e.lastSeen.Load() < cutoff {
				delete(s.entries, id)
				expired = true
			}
			s.mu.Unlock()
		}
		if expired {
			delete(m.byAddr, e.addr)
			continue
		}
		keep = append(keep, id)
	}
	m.order = keep
}
