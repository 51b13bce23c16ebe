package rpc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"blobseer/internal/bufpool"
	"blobseer/internal/transport"
	"blobseer/internal/vclock"
	"blobseer/internal/wire"
)

// echoHandler answers PingReq and GetPageReq (echoing a synthetic page),
// and fails DHTMultiGetReq with a typed error.
func echoHandler() Handler {
	mux := NewMux()
	mux.Register(wire.KindPingReq, func(_ context.Context, m wire.Msg) (wire.Msg, error) {
		return &wire.PingResp{Nonce: m.(*wire.PingReq).Nonce}, nil
	})
	mux.Register(wire.KindGetPageReq, func(_ context.Context, m wire.Msg) (wire.Msg, error) {
		req := m.(*wire.GetPageReq)
		data := bytes.Repeat([]byte{req.Page[0]}, int(req.Length))
		return &wire.GetPageResp{Data: data}, nil
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
	cl := NewClient(net, sched, ClientOptions{ConnsPerHost: 2})
	return cl, srv.Addr(), func() {
		cl.Close()
		srv.Close()
	}
}

func TestCallRoundTrip(t *testing.T) {
	cl, addr, cleanup := newTestServer(t)
	defer cleanup()
	resp, err := cl.Call(context.Background(), addr, &wire.PingReq{Nonce: 77})
	if err != nil {
		t.Fatal(err)
	}
	if resp.(*wire.PingResp).Nonce != 77 {
		t.Fatalf("nonce = %d", resp.(*wire.PingResp).Nonce)
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
			resp, err := cl.Call(context.Background(), addr, &wire.PingReq{Nonce: uint64(i)})
			if err != nil {
				errs <- err
				return
			}
			if got := resp.(*wire.PingResp).Nonce; got != uint64(i) {
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
	if _, err := cl.Call(context.Background(), addr, &wire.PingReq{Nonce: 1}); err != nil {
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
	resp, err := cl.Call(context.Background(), addr,
		&wire.GetPageReq{Page: wire.PageID{0xAB}, Length: sz})
	if err != nil {
		t.Fatal(err)
	}
	data := resp.(*wire.GetPageResp).Data
	if len(data) != sz || data[0] != 0xAB || data[sz-1] != 0xAB {
		t.Fatalf("bad payload: len=%d", len(data))
	}
}

func TestCallAfterClose(t *testing.T) {
	cl, addr, cleanup := newTestServer(t)
	cleanup()
	if _, err := cl.Call(context.Background(), addr, &wire.PingReq{}); !errors.Is(err, ErrClientClosed) {
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
	mux.Register(wire.KindPingReq, func(ctx context.Context, _ wire.Msg) (wire.Msg, error) {
		select {
		case <-block:
			return &wire.PingResp{}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	srv := Serve(ln, sched, mux)
	cl := NewClient(net, sched, ClientOptions{})
	defer cl.Close()

	errCh := make(chan error, 1)
	go func() {
		_, err := cl.Call(context.Background(), srv.Addr(), &wire.PingReq{})
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
	mux.Register(wire.KindPingReq, func(_ context.Context, m wire.Msg) (wire.Msg, error) {
		<-release
		return &wire.PingResp{Nonce: m.(*wire.PingReq).Nonce}, nil
	})
	srv := Serve(ln, sched, mux)
	defer srv.Close()
	cl := NewClient(net, sched, ClientOptions{})
	defer cl.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := cl.Call(ctx, srv.Addr(), &wire.PingReq{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	close(release)
	// The late response must not corrupt a subsequent call.
	resp, err := cl.Call(context.Background(), srv.Addr(), &wire.PingReq{Nonce: 9})
	if err != nil || resp.(*wire.PingResp).Nonce != 9 {
		t.Fatalf("follow-up call broken: %v %v", resp, err)
	}
}

func TestCallDialFailure(t *testing.T) {
	net := transport.NewInproc()
	cl := NewClient(net, vclock.NewReal(), ClientOptions{})
	defer cl.Close()
	if _, err := cl.Call(context.Background(), "nobody", &wire.PingReq{}); err == nil {
		t.Fatal("expected dial error")
	}
}

func TestRPCOverVirtualClock(t *testing.T) {
	// The same client/server stack must run under the Virtual scheduler:
	// this is the foundation of the simnet experiments.
	net := transport.NewInproc()
	v := vclock.NewVirtual(0)
	var nonce uint64
	err := v.Run(func() {
		ln, err := net.Listen("server")
		if err != nil {
			t.Error(err)
			return
		}
		srv := Serve(ln, v, echoHandler())
		defer srv.Close()
		cl := NewClient(net, v, ClientOptions{})
		defer cl.Close()
		resp, err := cl.Call(context.Background(), "server", &wire.PingReq{Nonce: 5})
		if err != nil {
			t.Error(err)
			return
		}
		nonce = resp.(*wire.PingResp).Nonce
	})
	if err != nil {
		t.Fatal(err)
	}
	if nonce != 5 {
		t.Fatalf("nonce = %d", nonce)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	buf, err := appendFrame(nil, 42, &wire.PingReq{Nonce: 7})
	if err != nil {
		t.Fatal(err)
	}
	id, kind, body, err := readFrame(bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	if id != 42 || kind != wire.KindPingReq {
		t.Fatalf("id=%d kind=%v", id, kind)
	}
	m, err := new(wire.Decoder).Decode(kind, *body)
	bufpool.Put(body)
	if err != nil || m.(*wire.PingReq).Nonce != 7 {
		t.Fatalf("decode: %v %v", m, err)
	}
}

func TestFrameRejectsOversize(t *testing.T) {
	var hdr [frameHeaderLen]byte
	hdr[0], hdr[1], hdr[2], hdr[3] = 0xFF, 0xFF, 0xFF, 0xFF
	if _, _, _, err := readFrame(bytes.NewReader(hdr[:])); err == nil {
		t.Fatal("oversize frame accepted")
	}

	// Encoding: a message too large to frame leaves the buffer it was
	// being appended to exactly as long as it was, whether it is refused
	// before marshalling (a sized kind) or after (any other), and the
	// next frame appended there reads back whole.
	buf, err := appendFrame(make([]byte, 0, 256), 1, &wire.PingReq{Nonce: 1})
	if err != nil {
		t.Fatal(err)
	}
	huge := make([]byte, MaxFrameBody+1)
	for _, m := range []wire.Msg{&wire.GetPageResp{Data: huge}, &wire.DHTMultiPutReq{Keys: [][]byte{{1}}, Values: [][]byte{huge}}} {
		out, err := appendFrame(buf, 2, m)
		if err == nil {
			t.Fatalf("oversize %v framed", m.Kind())
		}
		if len(out) != len(buf) || cap(out) != cap(buf) {
			t.Fatalf("failed %v left the buffer at len %d cap %d, was %d/%d", m.Kind(), len(out), cap(out), len(buf), cap(buf))
		}
		buf = out
	}
	if buf, err = appendFrame(buf, 3, &wire.PingReq{Nonce: 3}); err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(buf)
	for _, want := range []uint64{1, 3} {
		id, kind, body, err := readFrame(r)
		if err != nil {
			t.Fatal(err)
		}
		m, err := new(wire.Decoder).Decode(kind, *body)
		bufpool.Put(body)
		if err != nil || id != want || m.(*wire.PingReq).Nonce != want {
			t.Fatalf("frame %d after a refused one: id %d, %v, %v", want, id, m, err)
		}
	}
}
