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
)

// gatedNet counts dials and holds each one until the test lets it go,
// so concurrent first calls really do overlap the dial. failFirst makes
// the first dial fail once released.
type gatedNet struct {
	transport.Network
	dials     atomic.Int32
	gate      chan struct{}
	failFirst bool
}

func (n *gatedNet) Dial(ctx context.Context, addr string) (transport.Conn, error) {
	k := n.dials.Add(1)
	<-n.gate
	if n.failFirst && k == 1 {
		return nil, errors.New("dial refused")
	}
	return n.Network.Dial(ctx, addr)
}

// firstCalls issues n concurrent first Calls to one peer through net,
// releases the dial gate once all of them are on their way, and returns
// how many failed. after, when set, runs against the same client before
// it closes.
func firstCalls(t *testing.T, net *gatedNet, n int, after func(cl *Client, addr string)) (failed int) {
	t.Helper()
	ln, err := net.Listen("server")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(ln, vclock.NewReal(), echoHandler())
	defer srv.Close()
	cl := NewClient(net, vclock.NewReal())
	defer cl.Close()

	// The calls' only deadline is a watchdog: a caller stranded behind
	// the dial meets it and fails the test.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var started, wg sync.WaitGroup
	var fails atomic.Int32
	for i := 0; i < n; i++ {
		started.Add(1)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			started.Done()
			resp, err := cl.Call(ctx, srv.Addr(), echo(uint64(i)))
			if err != nil {
				fails.Add(1)
			} else if echoed(resp) != uint64(i) {
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
	close(net.gate)
	wg.Wait()
	if ctx.Err() != nil {
		t.Fatal("calls were stranded behind the in-flight dial")
	}
	if after != nil {
		after(cl, srv.Addr())
	}
	return int(fails.Load())
}

func TestConcurrentFirstCallsDialOnce(t *testing.T) {
	net := &gatedNet{Network: transport.NewInproc(), gate: make(chan struct{})}
	if failed := firstCalls(t, net, 32, nil); failed != 0 {
		t.Fatalf("%d of 32 calls failed", failed)
	}
	if got := net.dials.Load(); got != 1 {
		t.Fatalf("32 concurrent first calls dialled %d times, want 1", got)
	}
}

// callAfter is the call after a failed dial: no dial is in flight any
// more, so it dials for itself and goes through.
func callAfter(t *testing.T, net *gatedNet) func(*Client, string) {
	return func(cl *Client, addr string) {
		t.Helper()
		if _, err := cl.Call(context.Background(), addr, echo(0)); err != nil {
			t.Errorf("call after the failed dial: %v", err)
		}
		if got := net.dials.Load(); got != 2 {
			t.Errorf("dialled %d times, want the failed dial and one more", got)
		}
	}
}

// TestFailedDialFailsItsWaiters: a refused dial fails the caller that
// made it and every caller parked on it — nobody is stranded and nobody
// redials a peer that just refused — and lets the next call dial.
func TestFailedDialFailsItsWaiters(t *testing.T) {
	net := &gatedNet{Network: transport.NewInproc(), gate: make(chan struct{}), failFirst: true}
	if failed := firstCalls(t, net, 32, callAfter(t, net)); failed != 32 {
		t.Fatalf("%d of 32 calls failed, want all: they waited on the refused dial", failed)
	}
}
