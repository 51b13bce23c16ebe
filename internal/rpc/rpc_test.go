package rpc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blobseer/internal/bufpool"
	"blobseer/internal/simnet"
	"blobseer/internal/transport"
	"blobseer/internal/vclock"
	"blobseer/internal/wire"
)

// echo is the request these tests send where any live kind would do: a
// SIZE, which echoOf answers with n as the size.
func echo(n uint64) *wire.SizeReq { return &wire.SizeReq{Version: n} }

// echoOf answers an echo.
func echoOf(m wire.Msg) *wire.SizeResp { return &wire.SizeResp{Size: m.(*wire.SizeReq).Version} }

// echoed is the number an echo's answer carries.
func echoed(m wire.Msg) uint64 { return m.(*wire.SizeResp).Size }

// onePage is a GET_PAGES of length bytes of one page.
func onePage(page wire.PageID, length uint32) *wire.GetPagesReq {
	return &wire.GetPagesReq{Ranges: []wire.PageRange{{Page: page, Length: length}}}
}

// echoHandler answers echoes and one-range GET_PAGES (a synthetic page
// of the range's length, every byte the page id's first), and fails
// DHTMultiGetReq with a typed error.
func echoHandler() Handler {
	mux := NewMux()
	mux.Register(wire.KindSizeReq, func(_ context.Context, m wire.Msg) (wire.Msg, error) {
		return echoOf(m), nil
	})
	mux.Register(wire.KindGetPagesReq, func(_ context.Context, m wire.Msg) (wire.Msg, error) {
		r := m.(*wire.GetPagesReq).Ranges[0]
		return &wire.GetPagesResp{Found: []bool{true}, Data: [][]byte{bytes.Repeat([]byte{r.Page[0]}, int(r.Length))}}, nil
	})
	mux.Register(wire.KindDHTMultiGetReq, func(context.Context, wire.Msg) (wire.Msg, error) {
		return nil, wire.NewError(wire.CodeNotFound, "no such key")
	})
	mux.Register(wire.KindSyncReq, func(context.Context, wire.Msg) (wire.Msg, error) {
		// Simulates a long-blocking handler.
		time.Sleep(50 * time.Millisecond)
		return &wire.SyncResp{}, nil
	})
	return mux
}

func newTestServer(t *testing.T) (*Client, string, func()) {
	t.Helper()
	net := transport.NewInproc()
	sched := vclock.NewReal()
	ln, err := net.Listen("server")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(ln, sched, echoHandler())
	cl := NewClient(net, sched)
	return cl, srv.Addr(), func() {
		cl.Close()
		srv.Close()
	}
}

func TestCallRoundTrip(t *testing.T) {
	cl, addr, cleanup := newTestServer(t)
	defer cleanup()
	resp, err := cl.Call(context.Background(), addr, echo(77))
	if err != nil {
		t.Fatal(err)
	}
	if got := echoed(resp); got != 77 {
		t.Fatalf("echoed %d", got)
	}
}

func TestCallTypedError(t *testing.T) {
	cl, addr, cleanup := newTestServer(t)
	defer cleanup()
	_, err := cl.Call(context.Background(), addr, &wire.DHTMultiGetReq{Keys: [][]byte{[]byte("k")}})
	if !wire.IsNotFound(err) {
		t.Fatalf("err = %v, want typed not-found", err)
	}
}

func TestCallUnknownKind(t *testing.T) {
	cl, addr, cleanup := newTestServer(t)
	defer cleanup()
	_, err := cl.Call(context.Background(), addr, &wire.BranchReq{})
	if wire.CodeOf(err) != wire.CodeBadRequest {
		t.Fatalf("err = %v, want bad-request", err)
	}
}

func TestConcurrentCallsMultiplex(t *testing.T) {
	cl, addr, cleanup := newTestServer(t)
	defer cleanup()
	const n = 200
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := cl.Call(context.Background(), addr, echo(uint64(i)))
			if err != nil {
				errs <- err
				return
			}
			if got := echoed(resp); got != uint64(i) {
				errs <- fmt.Errorf("cross-delivered response: got %d want %d", got, i)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestSlowHandlerDoesNotBlockOthers(t *testing.T) {
	cl, addr, cleanup := newTestServer(t)
	defer cleanup()
	start := time.Now()
	done := make(chan struct{})
	go func() {
		cl.Call(context.Background(), addr, &wire.SyncReq{})
		close(done)
	}()
	// A fast call issued after the slow one should return well before it.
	if _, err := cl.Call(context.Background(), addr, echo(1)); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 40*time.Millisecond {
		t.Fatalf("fast call took %v behind a slow handler", elapsed)
	}
	<-done
}

func TestLargePayload(t *testing.T) {
	cl, addr, cleanup := newTestServer(t)
	defer cleanup()
	const sz = 4 << 20
	resp, err := cl.Call(context.Background(), addr, onePage(wire.PageID{0xAB}, sz))
	if err != nil {
		t.Fatal(err)
	}
	data := resp.(*wire.GetPagesResp).Data[0]
	if len(data) != sz || data[0] != 0xAB || data[sz-1] != 0xAB {
		t.Fatalf("bad payload: len=%d", len(data))
	}
}

func TestCallAfterClose(t *testing.T) {
	cl, addr, cleanup := newTestServer(t)
	cleanup()
	if _, err := cl.Call(context.Background(), addr, echo(0)); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("err = %v, want ErrClientClosed", err)
	}
}

func TestServerCloseFailsInflight(t *testing.T) {
	net := transport.NewInproc()
	sched := vclock.NewReal()
	ln, _ := net.Listen("server")
	block := make(chan struct{})
	mux := NewMux()
	// Close joins in-flight handlers, so the handler must honor the
	// server-shutdown cancellation — that is the contract Close enforces.
	mux.Register(wire.KindSizeReq, func(ctx context.Context, m wire.Msg) (wire.Msg, error) {
		select {
		case <-block:
			return echoOf(m), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	srv := Serve(ln, sched, mux)
	cl := NewClient(net, sched)
	defer cl.Close()

	errCh := make(chan error, 1)
	go func() {
		_, err := cl.Call(context.Background(), srv.Addr(), echo(0))
		errCh <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the request reach the handler
	srv.Close()
	close(block)
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("expected error after server close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("call did not fail after server close")
	}
}

func TestContextCancelAbandonsCall(t *testing.T) {
	net := transport.NewInproc()
	sched := vclock.NewReal()
	ln, _ := net.Listen("server")
	mux := NewMux()
	release := make(chan struct{})
	mux.Register(wire.KindSizeReq, func(_ context.Context, m wire.Msg) (wire.Msg, error) {
		<-release
		return echoOf(m), nil
	})
	srv := Serve(ln, sched, mux)
	defer srv.Close()
	cl := NewClient(net, sched)
	defer cl.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := cl.Call(ctx, srv.Addr(), echo(0)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	close(release)
	// The late response must not corrupt a subsequent call.
	resp, err := cl.Call(context.Background(), srv.Addr(), echo(9))
	if err != nil || echoed(resp) != 9 {
		t.Fatalf("follow-up call broken: %v %v", resp, err)
	}
}

func TestCallDialFailure(t *testing.T) {
	net := transport.NewInproc()
	cl := NewClient(net, vclock.NewReal())
	defer cl.Close()
	if _, err := cl.Call(context.Background(), "nobody", echo(0)); err == nil {
		t.Fatal("expected dial error")
	}
}

func TestRPCOverVirtualClock(t *testing.T) {
	// The same client/server stack must run under the Virtual scheduler:
	// this is the foundation of the simnet experiments. The transport is
	// simnet's, which blocks through the scheduler: an in-process one
	// blocks where the scheduler cannot see it, and with one simulated
	// goroutine running at a time a blocked read stops the world.
	v := vclock.NewVirtual(0)
	net := simnet.New(v, simnet.Config{})
	var got uint64
	err := v.Run(func() {
		ln, err := net.Host("server").Listen("rpc")
		if err != nil {
			t.Error(err)
			return
		}
		srv := Serve(ln, v, echoHandler())
		defer srv.Close()
		cl := NewClient(net.Host("client"), v)
		defer cl.Close()
		resp, err := cl.Call(context.Background(), ln.Addr(), echo(5))
		if err != nil {
			t.Error(err)
			return
		}
		got = echoed(resp)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 5 {
		t.Fatalf("echoed %d", got)
	}
}

// TestBrokenConnFailsCallsInIDOrder parks 16 calls on one connection
// under the virtual clock and breaks it: the callers resume in the order
// they were issued, which is their request ids' order, and not in the
// order of a map of pending calls.
func TestBrokenConnFailsCallsInIDOrder(t *testing.T) {
	const calls = 16
	v := vclock.NewVirtual(0)
	net := simnet.New(v, simnet.Config{Latency: 100 * time.Microsecond})
	var order []int
	err := v.Run(func() {
		ln, err := net.Host("server").Listen("rpc")
		if err != nil {
			t.Error(err)
			return
		}
		defer ln.Close()
		// The peer reads every request, answers none and hangs up.
		v.Go(func() {
			c, err := ln.Accept()
			if err != nil {
				t.Error(err)
				return
			}
			for range calls {
				nextRequest(t, c)
			}
			c.Close()
		})
		cl := NewClient(net.Host("client"), v)
		defer cl.Close()
		var mu sync.Mutex
		err = vclock.Parallel(v, calls, func(i int) error {
			// One at a time, so the i-th call takes the i-th request id.
			if err := v.Sleep(time.Duration(i) * time.Millisecond); err != nil {
				return err
			}
			if _, err := cl.Call(context.Background(), ln.Addr(), echo(uint64(i))); !errors.Is(err, ErrConnBroken) {
				return fmt.Errorf("call %d: %v, want ErrConnBroken", i, err)
			}
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != calls || !slices.IsSorted(order) {
		t.Fatalf("the broken connection's calls resumed in the order %v, want the order they were issued", order)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	buf, err := appendFrame(nil, 42, echo(7))
	if err != nil {
		t.Fatal(err)
	}
	id, kind, body, err := readFrame(bytes.NewReader(buf), new([frameHeaderLen]byte))
	if err != nil {
		t.Fatal(err)
	}
	if id != 42 || kind != wire.KindSizeReq {
		t.Fatalf("id=%d kind=%v", id, kind)
	}
	m, err := wire.Decode(kind, *body)
	bufpool.Put(body)
	if err != nil || m.(*wire.SizeReq).Version != 7 {
		t.Fatalf("decode: %v %v", m, err)
	}
}

func TestFrameRejectsOversize(t *testing.T) {
	var hdr [frameHeaderLen]byte
	hdr[0], hdr[1], hdr[2], hdr[3] = 0xFF, 0xFF, 0xFF, 0xFF
	if _, _, _, err := readFrame(bytes.NewReader(hdr[:]), new([frameHeaderLen]byte)); err == nil {
		t.Fatal("oversize frame accepted")
	}

	// Encoding: a message too large to frame leaves the buffer it was
	// being appended to exactly as long as it was, whether it is refused
	// before marshalling (a sized kind) or after (any other), and the
	// next frame appended there reads back whole.
	buf, err := appendFrame(make([]byte, 0, 256), 1, echo(1))
	if err != nil {
		t.Fatal(err)
	}
	huge := make([]byte, MaxFrameBody+1)
	for _, m := range []wire.Msg{
		&wire.GetPagesResp{Found: []bool{true}, Data: [][]byte{huge}},
		&wire.DHTMultiPutReq{Keys: [][]byte{{1}}, Values: [][]byte{huge}},
	} {
		out, err := appendFrame(buf, 2, m)
		if err == nil {
			t.Fatalf("oversize %v framed", m.Kind())
		}
		if len(out) != len(buf) || cap(out) != cap(buf) {
			t.Fatalf("failed %v left the buffer at len %d cap %d, was %d/%d", m.Kind(), len(out), cap(out), len(buf), cap(buf))
		}
		buf = out
	}
	if buf, err = appendFrame(buf, 3, echo(3)); err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(buf)
	for _, want := range []uint64{1, 3} {
		id, kind, body, err := readFrame(r, new([frameHeaderLen]byte))
		if err != nil {
			t.Fatal(err)
		}
		m, err := wire.Decode(kind, *body)
		bufpool.Put(body)
		if err != nil || id != want || m.(*wire.SizeReq).Version != want {
			t.Fatalf("frame %d after a refused one: id %d, %v, %v", want, id, m, err)
		}
	}
}

// TestCloseJoinsParkedHandler: Close returns only once every request's
// handler has returned, even one that ignores the cancellation Close
// sends and stays parked on an event until the test fires it.
func TestCloseJoinsParkedHandler(t *testing.T) {
	net, sched := transport.NewInproc(), vclock.NewReal()
	ln, _ := net.Listen("server")
	parked, release := sched.NewEvent(), sched.NewEvent()
	var returned atomic.Bool
	mux := NewMux()
	mux.Register(wire.KindSizeReq, func(_ context.Context, m wire.Msg) (wire.Msg, error) {
		parked.Fire(nil)
		_, _ = release.Wait(nil)
		returned.Store(true)
		return echoOf(m), nil
	})
	srv := Serve(ln, sched, mux)
	cl := NewClient(net, sched)
	defer cl.Close()
	go func() { _, _ = cl.Call(context.Background(), srv.Addr(), echo(0)) }()
	if _, err := parked.Wait(nil); err != nil {
		t.Fatal(err)
	}
	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
		release.Fire(nil)
		t.Fatal("Close returned while a handler was still parked")
	case <-time.After(100 * time.Millisecond):
	}
	release.Fire(nil)
	<-closed
	if !returned.Load() {
		t.Fatal("Close returned before the handler did")
	}
}
