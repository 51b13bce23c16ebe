package provider

import (
	"context"
	"sync"
	"time"

	"blobseer/internal/obs"
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
	// providers never crash unless a test kills them).
	Expiry time.Duration
}

// Manager is the provider manager service: the directory of live data
// providers and the page placement policy — round-robin over providers
// in registration order, the paper's "even distribution of pages among
// providers" (§3.1). It is a membership list under one mutex, searched
// linearly: a provider registers once, beats once per HeartbeatEvery,
// and a writer allocates once per update, so nothing here is hot or
// contended.
type Manager struct {
	cfg   ManagerConfig
	sched vclock.Scheduler
	srv   *rpc.Server

	mu     sync.Mutex
	live   []*entry // registration order, which is the round-robin order
	nextID uint32
	rr     int
}

// entry is one registered provider; its fields are guarded by
// Manager.mu.
type entry struct {
	id       uint32
	addr     string
	lastSeen time.Duration // sched.Now() at the last register or heartbeat
}

// ServeManager starts the provider manager on ln.
func ServeManager(ln transport.Listener, cfg ManagerConfig) *Manager {
	if cfg.Sched == nil {
		cfg.Sched = vclock.NewReal()
	}
	m := &Manager{cfg: cfg, sched: cfg.Sched}
	m.srv = rpc.Serve(ln, cfg.Sched, m.mux())
	return m
}

// Addr returns the manager's service address.
func (m *Manager) Addr() string { return m.srv.Addr() }

// Close stops the service.
func (m *Manager) Close() { m.srv.Close() }

// Metrics writes the manager's series: its rpc server's and the live
// providers it places pages on. Each provider's load is its own series.
func (m *Manager) Metrics(s *obs.Sink) {
	m.srv.Metrics(s)
	m.mu.Lock()
	m.expireLocked()
	live := len(m.live)
	m.mu.Unlock()
	s.Gauge("provider_manager_live_providers", "data providers registered and not expired", float64(live))
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
	return mux
}

// maxAllocAddrs bounds the addresses one ALLOCATE may ask for. Each
// costs at least its 4-byte length prefix, so no AllocateResp beyond it
// fits one rpc frame; the bound keeps a hostile N×Copies from sizing the
// manager's allocation.
const maxAllocAddrs = rpc.MaxFrameBody / 4

func (m *Manager) register(addr string) uint32 {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, e := range m.live {
		if e.addr == addr {
			e.lastSeen = m.sched.Now()
			return e.id
		}
	}
	m.nextID++
	m.live = append(m.live, &entry{id: m.nextID, addr: addr, lastSeen: m.sched.Now()})
	return m.nextID
}

// heartbeat refreshes one provider's liveness. A beat
// acknowledged before an expiry scan keeps its entry; one that arrives
// after the scan dropped it is answered false, and the provider
// registers again under a fresh id.
func (m *Manager) heartbeat(req *wire.HeartbeatReq) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, e := range m.live {
		if e.id == req.ID {
			e.lastSeen = m.sched.Now()
			return true
		}
	}
	return false
}

// Allocate picks providers for n pages with copies replicas each and
// returns n*copies addresses, page i's replicas at positions
// [i*copies, (i+1)*copies). Replicas of one page land on distinct
// providers whenever at least copies providers are live; otherwise the
// group repeats addresses rather than failing (degraded but writable,
// matching the availability-first behaviour of the paper's testbed). When
// n exceeds the provider count, different pages share providers, exactly
// like the paper's experiments where a blob has far more pages than there
// are providers. More than maxAllocAddrs addresses is a bad request.
func (m *Manager) Allocate(n, copies int) ([]string, error) {
	if n < 0 {
		return nil, wire.NewError(wire.CodeBadRequest, "negative page count")
	}
	if copies < 1 {
		copies = 1
	}
	if n > maxAllocAddrs/copies {
		return nil, wire.NewError(wire.CodeBadRequest,
			"%d pages of %d copies: more than %d addresses", n, copies, maxAllocAddrs)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.expireLocked()
	if len(m.live) == 0 {
		return nil, wire.NewError(wire.CodeUnavailable, "no data providers registered")
	}
	// The next n*copies entries of the ring: any copies consecutive
	// entries — one page's replicas — are distinct providers whenever
	// copies <= len(m.live).
	addrs := make([]string, 0, n*copies)
	for i := 0; i < n*copies; i++ {
		addrs = append(addrs, m.live[m.rr%len(m.live)].addr)
		m.rr++
	}
	return addrs, nil
}

// expireLocked drops providers whose heartbeats stopped. Called with
// mu held.
func (m *Manager) expireLocked() {
	if m.cfg.Expiry <= 0 {
		return
	}
	cutoff := m.sched.Now() - m.cfg.Expiry
	keep := m.live[:0]
	for _, e := range m.live {
		if e.lastSeen >= cutoff {
			keep = append(keep, e)
		}
	}
	m.live = keep
}
