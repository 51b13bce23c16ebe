package rpc

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blobseer/internal/transport"
	"blobseer/internal/vclock"
	"blobseer/internal/wire"
)

// gatedNet counts dials and holds each one until the test lets it go,
// so concurrent first calls really do overlap the dial. failFirst makes
// the first dial fail once released; blackhole makes the first dial hang
// until its context gives up, the way a dead peer's does.
type gatedNet struct {
	transport.Network
	dials     atomic.Int32
	gate      chan struct{}
	failFirst bool
	blackhole bool
}

func (n *gatedNet) Dial(ctx context.Context, addr string) (transport.Conn, error) {
	k := n.dials.Add(1)
	<-n.gate
	if n.failFirst && k == 1 {
		return nil, errors.New("dial refused")
	}
	if n.blackhole && k == 1 {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	return n.Network.Dial(ctx, addr)
}

// firstCalls issues n concurrent first Calls to one peer through net,
// releases the dial gate once all of them are on their way, and returns
// how many failed and how long the slowest took from the release. after,
// when set, runs against the same client before it closes.
func firstCalls(t *testing.T, net *gatedNet, opts ClientOptions, n int, after func(cl *Client, addr string)) (failed int, took time.Duration) {
	t.Helper()
	ln, err := net.Listen("server")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(ln, vclock.NewReal(), echoHandler())
	defer srv.Close()
	opts.ConnsPerHost = 1
	cl := NewClient(net, vclock.NewReal(), opts)
	defer cl.Close()

	// A watchdog rather than a deadline: a context with a deadline of
	// its own would switch the client's DialTimeout off.
	ctx, cancel := context.WithCancel(context.Background())
	defer time.AfterFunc(10*time.Second, cancel).Stop()
	defer cancel()
	var started, wg sync.WaitGroup
	var fails atomic.Int32
	for i := 0; i < n; i++ {
		started.Add(1)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			started.Done()
			resp, err := cl.Call(ctx, srv.Addr(), &wire.PingReq{Nonce: uint64(i)})
			if err != nil {
				fails.Add(1)
			} else if resp.(*wire.PingResp).Nonce != uint64(i) {
				t.Errorf("call %d got someone else's answer", i)
			}
		}(i)
	}
	started.Wait()
	for net.dials.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	// Give every caller the chance to reach the pool while the first
	// dial is still held; a correct pool parks them however long this is.
	time.Sleep(20 * time.Millisecond)
	released := time.Now()
	close(net.gate)
	wg.Wait()
	took = time.Since(released)
	if ctx.Err() != nil {
		t.Fatal("calls were stranded behind the in-flight dial")
	}
	if after != nil {
		after(cl, srv.Addr())
	}
	return int(fails.Load()), took
}

func TestConcurrentFirstCallsDialOnce(t *testing.T) {
	net := &gatedNet{Network: transport.NewInproc(), gate: make(chan struct{})}
	if failed, _ := firstCalls(t, net, ClientOptions{}, 32, nil); failed != 0 {
		t.Fatalf("%d of 32 calls failed", failed)
	}
	if got := net.dials.Load(); got != 1 {
		t.Fatalf("32 concurrent first calls with ConnsPerHost 1 dialled %d times, want 1", got)
	}
}

// pingAfter is the call after a failed dial: the slot is free again, so
// it dials for itself and goes through.
func pingAfter(t *testing.T, net *gatedNet) func(*Client, string) {
	return func(cl *Client, addr string) {
		t.Helper()
		if _, err := cl.Call(context.Background(), addr, &wire.PingReq{}); err != nil {
			t.Errorf("call after the failed dial: %v", err)
		}
		if got := net.dials.Load(); got != 2 {
			t.Errorf("dialled %d times, want the failed dial and one more", got)
		}
	}
}

// TestFailedDialFailsItsWaiters: a refused dial fails the caller that
// made it and every caller parked on it — nobody is stranded and nobody
// redials a peer that just refused — and leaves the slot free.
func TestFailedDialFailsItsWaiters(t *testing.T) {
	net := &gatedNet{Network: transport.NewInproc(), gate: make(chan struct{}), failFirst: true}
	if failed, _ := firstCalls(t, net, ClientOptions{}, 32, pingAfter(t, net)); failed != 32 {
		t.Fatalf("%d of 32 calls failed, want all: they waited on the refused dial", failed)
	}
}

// TestBlackholedDialFailsWaitersInOneTimeout: against a peer that never
// answers the dial, N concurrent calls fail together after one
// DialTimeout, not one after another after N of them.
func TestBlackholedDialFailsWaitersInOneTimeout(t *testing.T) {
	const dialTimeout = 100 * time.Millisecond
	net := &gatedNet{Network: transport.NewInproc(), gate: make(chan struct{}), blackhole: true}
	failed, took := firstCalls(t, net, ClientOptions{DialTimeout: dialTimeout}, 16, pingAfter(t, net))
	if failed != 16 {
		t.Fatalf("%d of 16 calls failed, want all", failed)
	}
	if took > 3*dialTimeout {
		t.Fatalf("16 calls to a dead peer took %v to fail, want about one DialTimeout (%v)", took, dialTimeout)
	}
}
