package rpc

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"blobseer/internal/obs"
	"blobseer/internal/simnet"
	"blobseer/internal/transport"
	"blobseer/internal/vclock"
	"blobseer/internal/wire"
)

// TestDisconnectMidReadCancelsHandler drives the full simulated network:
// a client sends a GET_PAGES and vanishes while the handler is still
// working. The per-connection context must cancel so the handler can
// abandon the work its client will never collect.
func TestDisconnectMidReadCancelsHandler(t *testing.T) {
	clock := vclock.NewVirtual(0)
	net := simnet.New(clock, simnet.Config{LinkBps: 10e6, Latency: 100 * time.Microsecond})
	var handlerErr error
	err := clock.Run(func() {
		ln, err := net.Host("server").Listen("blob")
		if err != nil {
			t.Error(err)
			return
		}
		entered := clock.NewEvent()
		finished := clock.NewEvent()
		mux := NewMux()
		mux.Register(wire.KindGetPagesReq, func(ctx context.Context, _ wire.Msg) (wire.Msg, error) {
			entered.Fire(nil)
			// Poll in virtual time: a raw <-ctx.Done() would park this
			// goroutine outside the scheduler and stall the simulation.
			for ctx.Err() == nil {
				if err := clock.Sleep(time.Millisecond); err != nil {
					finished.Fire(err)
					return nil, err
				}
			}
			finished.Fire(ctx.Err())
			return nil, ctx.Err()
		})
		srv := Serve(ln, clock, mux)
		defer srv.Close()

		conn, err := net.Host("client").Dial(context.Background(), srv.Addr())
		if err != nil {
			t.Error(err)
			return
		}
		frame, err := appendFrame(nil, 1, onePage(wire.PageID{1}, 8))
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := conn.Write(frame); err != nil {
			t.Error(err)
			return
		}
		if _, err := entered.Wait(nil); err != nil {
			t.Error(err)
			return
		}
		conn.Close() // the client disconnects mid-read
		v, err := finished.Wait(nil)
		if err != nil {
			t.Error(err)
			return
		}
		handlerErr, _ = v.(error)
	})
	if err != nil {
		t.Fatalf("simulation: %v", err)
	}
	if !errors.Is(handlerErr, context.Canceled) {
		t.Fatalf("handler context error = %v, want context.Canceled", handlerErr)
	}
}

// TestEncodeFailureCountedAndReported exercises the response-encoding
// fallback: an oversized response cannot be framed, so the client must
// get an error frame instead of a hung call, and the server must count
// the failure. The same goes for an oversized request, which fails its
// own call only. Either way the buffer the frame was being marshalled
// into is reused, so the next frame on the connection must come out
// well-formed.
func TestEncodeFailureCountedAndReported(t *testing.T) {
	net := transport.NewInproc()
	sched := vclock.NewReal()
	ln, err := net.Listen("server")
	if err != nil {
		t.Fatal(err)
	}
	mux := NewMux()
	mux.Register(wire.KindGetPagesReq, func(_ context.Context, m wire.Msg) (wire.Msg, error) {
		if n := m.(*wire.GetPagesReq).Ranges[0].Length; n != wire.WholePage {
			return &wire.GetPagesResp{Found: []bool{true}, Data: [][]byte{pattern(uint64(n), int(n))}}, nil
		}
		return &wire.GetPagesResp{Found: []bool{true}, Data: [][]byte{make([]byte, MaxFrameBody+1)}}, nil
	})
	mux.Register(wire.KindDHTMultiGetReq, func(context.Context, wire.Msg) (wire.Msg, error) {
		// Not a sized kind: found too large only once marshalled.
		return &wire.DHTMultiGetResp{Found: []bool{true}, Values: [][]byte{make([]byte, MaxFrameBody+1)}}, nil
	})
	srv := Serve(ln, sched, mux)
	defer srv.Close()
	cl := NewClient(net, sched)
	defer cl.Close()

	ctx := context.Background()
	wellFormed := func(after string) {
		t.Helper()
		resp, err := cl.Call(ctx, srv.Addr(), onePage(wire.PageID{1}, 3000))
		if err != nil || !bytes.Equal(resp.(*wire.GetPagesResp).Data[0], pattern(3000, 3000)) {
			t.Fatalf("call after %s: %v", after, err)
		}
	}
	wellFormed("connect")
	_, err = cl.Call(ctx, srv.Addr(), onePage(wire.PageID{1}, wire.WholePage))
	if err == nil {
		t.Fatal("oversized response produced no client error")
	}
	if got := obs.Value(srv, "rpc_encode_failures_total"); got != 1 {
		t.Fatalf("rpc_encode_failures_total = %v, want 1", got)
	}
	wellFormed("an oversized page response")
	if _, err = cl.Call(ctx, srv.Addr(), &wire.DHTMultiGetReq{Keys: [][]byte{[]byte("k")}}); err == nil {
		t.Fatal("oversized metadata response produced no client error")
	}
	if got := obs.Value(srv, "rpc_encode_failures_total"); got != 2 {
		t.Fatalf("rpc_encode_failures_total = %v, want 2", got)
	}
	wellFormed("an oversized metadata response")
	_, err = cl.Call(ctx, srv.Addr(), &wire.PutPageReq{Page: wire.PageID{1}, Data: make([]byte, MaxFrameBody+1)})
	if err == nil || errors.Is(err, ErrConnBroken) {
		t.Fatalf("oversized request: err = %v, want a failure of that call alone", err)
	}
	wellFormed("an oversized request")
}
