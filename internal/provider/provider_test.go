package provider

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"blobseer/internal/pagestore"
	"blobseer/internal/rpc"
	"blobseer/internal/simnet"
	"blobseer/internal/transport"
	"blobseer/internal/vclock"
	"blobseer/internal/wire"
)

// testRig wires a manager and n providers over an in-process network.
type testRig struct {
	net      *transport.Inproc
	sched    vclock.Scheduler
	client   *rpc.Client
	manager  *Manager
	provs    []*Provider
	cleanups []func()
}

func newRig(t *testing.T, n int, mcfg ManagerConfig) *testRig {
	t.Helper()
	r := &testRig{net: transport.NewInproc(), sched: vclock.NewReal()}
	if mcfg.Sched == nil {
		mcfg.Sched = r.sched
	}
	r.client = rpc.NewClient(r.net, r.sched, rpc.ClientOptions{})
	mln, err := r.net.Listen("manager")
	if err != nil {
		t.Fatal(err)
	}
	r.manager = ServeManager(mln, mcfg)
	for i := 0; i < n; i++ {
		ln, err := r.net.Listen("")
		if err != nil {
			t.Fatal(err)
		}
		p, err := Serve(ln, Config{
			Sched:          r.sched,
			ManagerAddr:    "manager",
			Client:         r.client,
			HeartbeatEvery: 10 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		r.provs = append(r.provs, p)
	}
	t.Cleanup(func() {
		for _, p := range r.provs {
			p.Close()
		}
		r.manager.Close()
		r.client.Close()
		r.net.Close()
	})
	return r
}

func (r *testRig) call(t *testing.T, addr string, req wire.Msg) wire.Msg {
	t.Helper()
	resp, err := r.client.Call(context.Background(), addr, req)
	if err != nil {
		t.Fatalf("%v to %s: %v", req.Kind(), addr, err)
	}
	return resp
}

func TestPutGetPageOverRPC(t *testing.T) {
	r := newRig(t, 1, ManagerConfig{})
	addr := r.provs[0].Addr()
	id := wire.PageID{1, 2, 3}
	data := []byte("page contents here")

	r.call(t, addr, &wire.PutPageReq{Page: id, Data: data})
	resp := r.call(t, addr, &wire.GetPageReq{Page: id, Length: wire.WholePage})
	if !bytes.Equal(resp.(*wire.GetPageResp).Data, data) {
		t.Fatalf("got %q", resp.(*wire.GetPageResp).Data)
	}

	// Partial read: the paper's unaligned READ fetches only part of a page.
	resp = r.call(t, addr, &wire.GetPageReq{Page: id, Offset: 5, Length: 8})
	if got := string(resp.(*wire.GetPageResp).Data); got != "contents" {
		t.Fatalf("partial read = %q", got)
	}

	has := r.call(t, addr, &wire.HasPageReq{Page: id})
	if !has.(*wire.HasPageResp).Found {
		t.Fatal("HasPage = false")
	}

	stats := r.call(t, addr, &wire.ProviderStatsReq{})
	if s := stats.(*wire.ProviderStatsResp); s.Pages != 1 || s.Bytes != uint64(len(data)) {
		t.Fatalf("stats = %+v", s)
	}
}

func TestGetMissingPageError(t *testing.T) {
	r := newRig(t, 1, ManagerConfig{})
	_, err := r.client.Call(context.Background(), r.provs[0].Addr(),
		&wire.GetPageReq{Page: wire.PageID{9}, Length: wire.WholePage})
	if !wire.IsNotFound(err) {
		t.Fatalf("err = %v, want not-found", err)
	}
}

func TestGetBadRangeError(t *testing.T) {
	r := newRig(t, 1, ManagerConfig{})
	addr := r.provs[0].Addr()
	r.call(t, addr, &wire.PutPageReq{Page: wire.PageID{1}, Data: []byte("xy")})
	_, err := r.client.Call(context.Background(), addr,
		&wire.GetPageReq{Page: wire.PageID{1}, Offset: 5, Length: 1})
	if !wire.IsOutOfBounds(err) {
		t.Fatalf("err = %v, want out-of-bounds", err)
	}
}

// isBadRequest reports whether err is a protocol bad-request error.
func isBadRequest(err error) bool {
	var we *wire.Error
	return errors.As(err, &we) && we.Code == wire.CodeBadRequest
}

// TestGetPagesRequestCaps exercises the server-side bounds on one
// GetPagesReq: the range-count cap (a batch at the cap is served, one
// past it is rejected) and the cumulative-response-byte cap (two pages
// that together exceed it are rejected, each alone is served — the
// first range is exempt for parity with GetPageReq).
func TestGetPagesRequestCaps(t *testing.T) {
	r := newRig(t, 1, ManagerConfig{})
	addr := r.provs[0].Addr()

	ranges := make([]wire.PageRange, wire.MaxGetPagesRanges)
	for i := range ranges {
		ranges[i] = wire.PageRange{
			Page:   wire.PageID{byte(i), byte(i >> 8), 0xee},
			Length: wire.WholePage,
		}
	}
	resp := r.call(t, addr, &wire.GetPagesReq{Ranges: ranges})
	for i, f := range resp.(*wire.GetPagesResp).Found {
		if f {
			t.Fatalf("range %d unexpectedly found", i)
		}
	}

	over := append(ranges, wire.PageRange{Page: wire.PageID{0xff}, Length: wire.WholePage})
	_, err := r.client.Call(context.Background(), addr, &wire.GetPagesReq{Ranges: over})
	if !isBadRequest(err) {
		t.Fatalf("over-cap range count: err = %v, want bad-request", err)
	}

	big := bytes.Repeat([]byte{0xab}, wire.MaxGetPagesBytes/2+1)
	p1, p2 := wire.PageID{1}, wire.PageID{2}
	r.call(t, addr, &wire.PutPageReq{Page: p1, Data: big})
	r.call(t, addr, &wire.PutPageReq{Page: p2, Data: big})
	one := r.call(t, addr, &wire.GetPagesReq{
		Ranges: []wire.PageRange{{Page: p1, Length: wire.WholePage}},
	})
	if got := one.(*wire.GetPagesResp).Data[0]; !bytes.Equal(got, big) {
		t.Fatalf("single over-half-cap page: got %d bytes, want %d", len(got), len(big))
	}
	_, err = r.client.Call(context.Background(), addr, &wire.GetPagesReq{
		Ranges: []wire.PageRange{
			{Page: p1, Length: wire.WholePage},
			{Page: p2, Length: wire.WholePage},
		},
	})
	if !isBadRequest(err) {
		t.Fatalf("over-cap response bytes: err = %v, want bad-request", err)
	}
}

func TestDeletePagesReclaimsAndIsIdempotent(t *testing.T) {
	r := newRig(t, 1, ManagerConfig{})
	addr := r.provs[0].Addr()
	keep := wire.PageID{1}
	gone := wire.PageID{2}
	r.call(t, addr, &wire.PutPageReq{Page: keep, Data: []byte("keep")})
	r.call(t, addr, &wire.PutPageReq{Page: gone, Data: []byte("gone")})

	// The batch may mix stored and never-stored ids: both are fine.
	r.call(t, addr, &wire.DeletePagesReq{Pages: []wire.PageID{gone, {9, 9}}})
	if _, err := r.client.Call(context.Background(), addr,
		&wire.GetPageReq{Page: gone, Length: wire.WholePage}); !wire.IsNotFound(err) {
		t.Fatalf("deleted page read: err = %v", err)
	}
	resp := r.call(t, addr, &wire.GetPageReq{Page: keep, Length: wire.WholePage})
	if !bytes.Equal(resp.(*wire.GetPageResp).Data, []byte("keep")) {
		t.Fatal("unrelated page affected by delete")
	}
	stats := r.call(t, addr, &wire.ProviderStatsReq{}).(*wire.ProviderStatsResp)
	if stats.Pages != 1 || stats.Bytes != 4 {
		t.Fatalf("stats after delete = %+v", stats)
	}
	// Idempotent: a retried sweep changes nothing.
	r.call(t, addr, &wire.DeletePagesReq{Pages: []wire.PageID{gone}})

	// A malformed request deletes nothing, wherever in it the defect sits.
	if _, err := r.client.Call(context.Background(), addr,
		&wire.DeletePagesReq{Pages: []wire.PageID{keep, {}}}); wire.CodeOf(err) != wire.CodeBadRequest {
		t.Fatal("zero page id accepted by delete")
	}
	resp = r.call(t, addr, &wire.GetPageReq{Page: keep, Length: wire.WholePage})
	if !bytes.Equal(resp.(*wire.GetPageResp).Data, []byte("keep")) {
		t.Fatal("a rejected delete removed the page named before its zero id")
	}
}

func TestPutZeroPageIDRejected(t *testing.T) {
	r := newRig(t, 1, ManagerConfig{})
	_, err := r.client.Call(context.Background(), r.provs[0].Addr(),
		&wire.PutPageReq{Data: []byte("x")})
	if wire.CodeOf(err) != wire.CodeBadRequest {
		t.Fatalf("err = %v, want bad-request", err)
	}
}

func TestRoundRobinAllocationIsEven(t *testing.T) {
	r := newRig(t, 5, ManagerConfig{})
	resp := r.call(t, "manager", &wire.AllocateReq{N: 100})
	addrs := resp.(*wire.AllocateResp).Addrs
	if len(addrs) != 100 {
		t.Fatalf("allocated %d", len(addrs))
	}
	counts := map[string]int{}
	for _, a := range addrs {
		counts[a]++
	}
	if len(counts) != 5 {
		t.Fatalf("spread over %d providers, want 5", len(counts))
	}
	for a, c := range counts {
		if c != 20 {
			t.Errorf("provider %s got %d pages, want exactly 20", a, c)
		}
	}
}

func TestAllocateNoProviders(t *testing.T) {
	r := newRig(t, 0, ManagerConfig{})
	_, err := r.client.Call(context.Background(), "manager", &wire.AllocateReq{N: 1})
	if wire.CodeOf(err) != wire.CodeUnavailable {
		t.Fatalf("err = %v, want unavailable", err)
	}
}

func TestReRegisterSameAddrKeepsOneEntry(t *testing.T) {
	r := newRig(t, 1, ManagerConfig{})
	addr := r.provs[0].Addr()
	id1 := r.call(t, "manager", &wire.RegisterReq{Addr: addr, Weight: 1}).(*wire.RegisterResp).ID
	id2 := r.call(t, "manager", &wire.RegisterReq{Addr: addr, Weight: 2}).(*wire.RegisterResp).ID
	if id1 != id2 {
		t.Fatalf("re-register changed id: %d -> %d", id1, id2)
	}
	if n := r.manager.ProviderCount(); n != 1 {
		t.Fatalf("provider count = %d", n)
	}
}

func TestHeartbeatUnknownIDRequestsReRegister(t *testing.T) {
	r := newRig(t, 1, ManagerConfig{})
	resp := r.call(t, "manager", &wire.HeartbeatReq{ID: 9999})
	if resp.(*wire.HeartbeatResp).Known {
		t.Fatal("unknown id acknowledged")
	}
}

func TestExpiryDropsSilentProviders(t *testing.T) {
	// Virtual clock so expiry is deterministic. The server must run over
	// simnet: blocking on an in-process transport would be invisible to
	// the virtual clock and wedge the simulation.
	clock := vclock.NewVirtual(0)
	net := simnet.New(clock, simnet.Config{})
	err := clock.Run(func() {
		mln, err := net.Host("mgr").Listen("manager")
		if err != nil {
			t.Error(err)
			return
		}
		mgr := ServeManager(mln, ManagerConfig{Sched: clock, Expiry: time.Second})
		defer mgr.Close()
		mgr.register("dead-provider:1")
		if n := mgr.ProviderCount(); n != 1 {
			t.Errorf("count = %d, want 1", n)
		}
		clock.Sleep(2 * time.Second)
		if n := mgr.ProviderCount(); n != 0 {
			t.Errorf("count after expiry = %d, want 0", n)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestHeartbeatVersusExpiryScan pins the one ordering rule between a
// beat and an expiry scan: a beat acknowledged before the scan keeps
// its entry; a beat that arrives after the scan dropped the entry is
// answered Known false, and the provider's next register gets a fresh
// id at the end of the placement order.
func TestHeartbeatVersusExpiryScan(t *testing.T) {
	clock := vclock.NewVirtual(0)
	net := simnet.New(clock, simnet.Config{})
	err := clock.Run(func() {
		mln, err := net.Host("mgr").Listen("manager")
		if err != nil {
			t.Error(err)
			return
		}
		mgr := ServeManager(mln, ManagerConfig{Sched: clock, Expiry: time.Second})
		defer mgr.Close()
		early, late := mgr.register("early:1"), mgr.register("late:1")
		clock.Sleep(900 * time.Millisecond)
		if !mgr.heartbeat(&wire.HeartbeatReq{ID: early}) {
			t.Error("beat inside the expiry window not acknowledged")
		}
		clock.Sleep(200 * time.Millisecond) // early was seen 0.2 s ago, late 1.1 s ago
		if n := mgr.ProviderCount(); n != 1 {
			t.Errorf("%d providers after the scan, want the one that beat before it", n)
		}
		if !mgr.heartbeat(&wire.HeartbeatReq{ID: early}) {
			t.Error("the scan dropped an entry whose beat it had acknowledged")
		}
		if mgr.heartbeat(&wire.HeartbeatReq{ID: late}) {
			t.Error("beat after the scan dropped its entry was acknowledged")
		}
		again := mgr.register("late:1")
		if again == late || again == early {
			t.Errorf("re-register after expiry reused id %d (early %d, late %d)", again, early, late)
		}
		var got []string
		for _, p := range mgr.list().Providers {
			got = append(got, p.Addr)
		}
		if want := []string{"early:1", "late:1"}; !reflect.DeepEqual(got, want) {
			t.Errorf("providers = %v, want %v", got, want)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllocateReplicasDistinct(t *testing.T) {
	r := newRig(t, 5, ManagerConfig{})
	const pages, copies = 40, 3
	resp := r.call(t, "manager", &wire.AllocateReq{N: pages, Copies: copies})
	addrs := resp.(*wire.AllocateResp).Addrs
	if len(addrs) != pages*copies {
		t.Fatalf("got %d addrs, want %d", len(addrs), pages*copies)
	}
	for p := 0; p < pages; p++ {
		group := addrs[p*copies : (p+1)*copies]
		seen := map[string]bool{}
		for _, a := range group {
			if seen[a] {
				t.Fatalf("page %d: duplicate replica provider %s in %v", p, a, group)
			}
			seen[a] = true
		}
	}
}

func TestAllocateMoreCopiesThanProviders(t *testing.T) {
	r := newRig(t, 2, ManagerConfig{})
	resp := r.call(t, "manager", &wire.AllocateReq{N: 3, Copies: 5})
	addrs := resp.(*wire.AllocateResp).Addrs
	if len(addrs) != 15 {
		t.Fatalf("got %d addrs, want 15", len(addrs))
	}
	// Degraded mode: groups contain repeats, but allocation must not fail
	// and must still involve both providers.
	uniq := map[string]bool{}
	for _, a := range addrs {
		uniq[a] = true
	}
	if len(uniq) != 2 {
		t.Fatalf("allocation used %d providers, want 2", len(uniq))
	}
}

func TestAllocateEvenDistributionWithReplicas(t *testing.T) {
	r := newRig(t, 4, ManagerConfig{})
	resp := r.call(t, "manager", &wire.AllocateReq{N: 100, Copies: 2})
	counts := map[string]int{}
	for _, a := range resp.(*wire.AllocateResp).Addrs {
		counts[a]++
	}
	// 200 placements over 4 providers: round-robin keeps them even.
	for a, n := range counts {
		if n != 50 {
			t.Fatalf("provider %s got %d placements, want 50 (counts=%v)", a, n, counts)
		}
	}
}

func TestHeartbeatsDoNotSerializeBehindAllocate(t *testing.T) {
	// The striped registry's contract: heartbeats from many providers
	// race Allocate/list/expiry without data races or lost updates.
	// Run with -race to make this meaningful.
	r := newRig(t, 0, ManagerConfig{Expiry: time.Hour})
	const providers = 24
	ids := make([]uint32, providers)
	for i := range ids {
		ids[i] = r.manager.register(fmt.Sprintf("prov-%d:1", i))
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := ids[(w*200+i)%providers]
				if !r.manager.heartbeat(&wire.HeartbeatReq{ID: id, Pages: uint64(i), Bytes: uint64(i) * 10}) {
					t.Errorf("heartbeat for %d unknown", id)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			if _, err := r.manager.Allocate(8, 2); err != nil {
				t.Errorf("allocate: %v", err)
				return
			}
			r.manager.list()
			r.manager.ProviderCount()
		}
	}()
	wg.Wait()
	if n := r.manager.ProviderCount(); n != providers {
		t.Fatalf("provider count = %d, want %d", n, providers)
	}
}

func TestProviderOwnsPageLog(t *testing.T) {
	dir := t.TempDir()
	net := transport.NewInproc()
	defer net.Close()
	sched := vclock.NewReal()
	serve := func() *Provider {
		ln, err := net.Listen("")
		if err != nil {
			t.Fatal(err)
		}
		p, err := Serve(ln, Config{
			Sched:     sched,
			PageLog:   filepath.Join(dir, "pages.log"),
			PageStore: pagestore.DiskOptions{SegmentBytes: 4096},
		})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	p := serve()
	id := wire.PageID{7, 7, 7}
	if err := p.Store().Put(id, []byte("durable page")); err != nil {
		t.Fatal(err)
	}
	p.Close()
	// Close must have released the log: reopening the same path works
	// and the page survived.
	p2 := serve()
	defer p2.Close()
	got, err := p2.Store().Get(id, 0, wire.WholePage)
	if err != nil || string(got) != "durable page" {
		t.Fatalf("page after provider restart: %q, %v", got, err)
	}
}
