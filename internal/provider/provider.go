// Package provider implements the two page-side services of BlobSeer:
// the data provider, which physically stores the pages generated by
// WRITE and APPEND, and the provider manager, which tracks the available
// providers and decides which ones store each new page (§3.1 of the
// paper).
package provider

import (
	"context"
	"errors"
	"time"

	"blobseer/internal/obs"
	"blobseer/internal/pagestore"
	"blobseer/internal/rpc"
	"blobseer/internal/transport"
	"blobseer/internal/vclock"
	"blobseer/internal/wire"
)

// Config configures a data provider.
type Config struct {
	// Store is the page engine; nil has the provider open, own and close
	// one at PageLog: durable at that path, in memory when it is empty.
	Store pagestore.Store
	// PageLog and PageStore root and tune that store: how blobseerd and
	// cluster deployments plumb the page-store knobs down to the engine.
	PageLog   string
	PageStore pagestore.DiskOptions
	// Sched drives background loops; defaults to the real clock.
	Sched vclock.Scheduler
	// ManagerAddr, when set, makes the provider register itself with the
	// provider manager and send periodic heartbeats.
	ManagerAddr string
	// Client is the rpc client used to reach the manager. Required when
	// ManagerAddr is set.
	Client *rpc.Client
	// HeartbeatEvery is the heartbeat period (default 5s).
	HeartbeatEvery time.Duration
	// CallTimeout bounds each registration and heartbeat call to the
	// manager (default HeartbeatEvery, but at least a second), so a
	// dead manager cannot wedge the loop. Inert under a Virtual
	// scheduler, like all deadlines.
	CallTimeout time.Duration
}

// minCallTimeout floors CallTimeout's default. A call's deadline covers
// a dial and the scheduling delays of a loaded host, which do not shrink
// with the heartbeat period: a provider beating every few milliseconds
// must still get its registration through.
const minCallTimeout = time.Second

// Provider is a running data provider service.
type Provider struct {
	store    pagestore.Store
	ownStore bool // the provider opened it (at PageLog) and closes it
	srv      *rpc.Server
	cfg      Config
	closed   chan struct{}
	cancel   context.CancelFunc
	beat     *vclock.Sleeper // the heartbeat loop's sleep; Close stops it
	wg       *vclock.WaitGroup
}

// Serve starts a data provider on ln. If cfg.ManagerAddr is set the
// provider registers itself before returning, so that a following
// Allocate on the manager can already see it. Serve is a lifecycle
// root: the registration call it makes runs under the provider's own
// context (cancelled by Close, bounded by cfg.CallTimeout), not a
// caller context.
//
//blobseer:ctx lifecycle root: registration runs under the provider's own Close-cancelled context
func Serve(ln transport.Listener, cfg Config) (*Provider, error) {
	if cfg.Sched == nil {
		cfg.Sched = vclock.NewReal()
	}
	ownStore := cfg.Store == nil
	if ownStore {
		d, err := pagestore.Open(cfg.Sched, cfg.PageLog, cfg.PageStore)
		if err != nil {
			return nil, err
		}
		cfg.Store = d
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = 5 * time.Second
	}
	if cfg.CallTimeout <= 0 {
		cfg.CallTimeout = max(cfg.HeartbeatEvery, minCallTimeout)
	}
	p := &Provider{store: cfg.Store, ownStore: ownStore, cfg: cfg, closed: make(chan struct{}),
		beat: vclock.NewSleeper(cfg.Sched), wg: vclock.NewWaitGroup(cfg.Sched)}
	// The provider is the lifecycle root for its manager-facing loops:
	// Close cancels the context, which interrupts any in-flight
	// registration or heartbeat call, and stops the heartbeat sleep.
	//blobseer:ctx lifecycle root: Close cancels registration and heartbeats
	ctx, cancel := context.WithCancel(context.Background())
	p.cancel = cancel
	p.srv = rpc.Serve(ln, cfg.Sched, p.mux())
	if cfg.ManagerAddr != "" {
		if cfg.Client == nil {
			p.Close()
			return nil, errors.New("provider: ManagerAddr set but no rpc client given")
		}
		id, err := p.register(ctx)
		if err != nil {
			p.Close()
			return nil, err
		}
		p.wg.Go(func() { p.heartbeatLoop(ctx, id) })
	}
	return p, nil
}

// Addr returns the address clients use to fetch and store pages.
func (p *Provider) Addr() string { return p.srv.Addr() }

// Store exposes the underlying page engine (used by tests).
func (p *Provider) Store() pagestore.Store { return p.store }

// Metrics writes the provider's series: its rpc server's and its store's.
func (p *Provider) Metrics(s *obs.Sink) {
	p.srv.Metrics(s)
	p.store.Metrics(s)
}

// Close stops serving, cancels and joins the heartbeat loop, and closes
// the page store when the provider opened it itself (Store was nil).
func (p *Provider) Close() {
	select {
	case <-p.closed:
		return
	default:
		close(p.closed)
	}
	p.cancel()
	p.beat.Stop()
	p.srv.Close()
	if p.ownStore {
		p.store.Close()
	}
	_ = p.wg.Wait() // ErrStopped means the scheduler already unwound it
}

func (p *Provider) register(ctx context.Context) (uint32, error) {
	ctx, cancel := context.WithTimeout(ctx, p.cfg.CallTimeout)
	defer cancel()
	resp, err := p.cfg.Client.Call(ctx, p.cfg.ManagerAddr, wire.NewRegisterReq(p.srv.Addr()))
	if err != nil {
		return 0, err
	}
	return resp.(*wire.RegisterResp).ID, nil
}

// heartbeatLoop reports liveness to the manager. Consecutive failures
// back the period off (doubling, capped at 8 beats) so a dead manager
// sees reconnection attempts, not a call storm, when it returns.
func (p *Provider) heartbeatLoop(ctx context.Context, id uint32) {
	const maxBackoffBeats = 8
	wait := p.cfg.HeartbeatEvery
	for {
		if err := p.beat.Sleep(wait); err != nil {
			return
		}
		select {
		case <-p.closed:
			return
		default:
		}
		if ctx.Err() != nil {
			return
		}
		// A beat reports liveness only: the provider's load is its own
		// series (store_keys, store_value_bytes).
		cctx, cancel := context.WithTimeout(ctx, p.cfg.CallTimeout)
		resp, err := p.cfg.Client.Call(cctx, p.cfg.ManagerAddr, &wire.HeartbeatReq{ID: id})
		cancel()
		if err != nil {
			// Transient; next beat retries, later.
			if wait *= 2; wait > maxBackoffBeats*p.cfg.HeartbeatEvery {
				wait = maxBackoffBeats * p.cfg.HeartbeatEvery
			}
			continue
		}
		wait = p.cfg.HeartbeatEvery
		if !resp.(*wire.HeartbeatResp).Known {
			// Manager restarted: re-register under a fresh id.
			newID, err := p.register(ctx)
			if err == nil {
				id = newID
			}
		}
	}
}

// mux wires the page protocol to the store.
func (p *Provider) mux() *rpc.Mux {
	m := rpc.NewMux()
	m.Register(wire.KindPutPageReq, func(_ context.Context, msg wire.Msg) (wire.Msg, error) {
		req := msg.(*wire.PutPageReq)
		if req.Page.IsZero() {
			return nil, wire.NewError(wire.CodeBadRequest, "zero page id")
		}
		if err := p.store.Put(req.Page, req.Data); err != nil {
			return nil, err
		}
		return &wire.PutPageResp{}, nil
	})
	m.Register(wire.KindGetPagesReq, func(_ context.Context, msg wire.Msg) (wire.Msg, error) {
		req := msg.(*wire.GetPagesReq)
		// The whole response is built in memory before replying, so cap
		// what one request may demand. The first range is exempt from the
		// byte cap: one whole page is always fetchable.
		if len(req.Ranges) > wire.MaxGetPagesRanges {
			return nil, wire.NewError(wire.CodeBadRequest,
				"%d ranges in one batch, cap %d", len(req.Ranges), wire.MaxGetPagesRanges)
		}
		resp := &lentPages{wire.GetPagesResp{
			Found: make([]bool, len(req.Ranges)),
			Data:  make([][]byte, len(req.Ranges)),
		}, p.store}
		var total uint64
		for i, pr := range req.Ranges {
			data, err := p.store.Get(pr.Page, pr.Offset, pr.Length)
			if err != nil {
				// A page this replica does not hold is per-entry data —
				// the client falls back to another replica for just that
				// page — but a bad range is a malformed request.
				if errors.Is(err, pagestore.ErrNotFound) {
					continue
				}
				resp.Release() // the pages read before this one
				if errors.Is(err, pagestore.ErrBadRange) {
					err = wire.NewError(wire.CodeOutOfBounds, "%v", err)
				}
				return nil, err
			}
			resp.Found[i], resp.Data[i] = true, data
			total += uint64(len(data))
			if total > wire.MaxGetPagesBytes && i > 0 {
				resp.Release() // this page included
				return nil, wire.NewError(wire.CodeBadRequest,
					"batch response exceeds %d bytes", wire.MaxGetPagesBytes)
			}
		}
		return resp, nil
	})
	m.Register(wire.KindDeletePagesReq, func(_ context.Context, msg wire.Msg) (wire.Msg, error) {
		req := msg.(*wire.DeletePagesReq)
		// The caller (the metadata-walking GC, or a writer reclaiming
		// pages it abandoned) vouches the pages are unreachable from
		// every retained snapshot; unknown ids are no-ops, so retried
		// and concurrent sweeps are harmless. A malformed request deletes
		// nothing, wherever in it the defect sits.
		for _, id := range req.Pages {
			if id.IsZero() {
				return nil, wire.NewError(wire.CodeBadRequest, "zero page id")
			}
		}
		for _, id := range req.Pages {
			if err := p.store.Delete(id); err != nil {
				return nil, err
			}
		}
		return &wire.DeletePagesResp{}, nil
	})
	return m
}

// lentPages is the GET_PAGES response as the provider's handler returns
// it: the wire message — it marshals as exactly that, its methods are
// promoted — plus the store its pages are on loan from
// (pagestore.Store.Get). It implements rpc.Borrower, so the server gives
// every page back once the response is framed; a handler that fails
// after borrowing calls Release itself and returns no response. Either
// way each page is released exactly once.
type lentPages struct {
	wire.GetPagesResp
	store pagestore.Store
}

// Release gives back the pages read so far: Found marks exactly those.
func (r *lentPages) Release() {
	for i, found := range r.Found {
		if found {
			r.store.Release(r.Data[i])
		}
	}
}
