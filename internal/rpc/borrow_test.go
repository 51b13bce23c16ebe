package rpc

import (
	"bytes"
	"context"
	"testing"
	"time"

	"blobseer/internal/bufpool"
	"blobseer/internal/transport"
	"blobseer/internal/vclock"
	"blobseer/internal/wire"
)

// lentOne is a one-page GET_PAGES response whose page sits in a pool
// buffer on loan to it, the way a data provider's does.
type lentOne struct {
	wire.GetPagesResp
	released chan<- struct{}
}

func (r *lentOne) Release() {
	bufpool.PutBytes(r.Data[0])
	r.released <- struct{}{}
}

// TestServerReleasesBorrowedBuffers: the server calls a response's
// Release exactly once on every way out of serveRequest, and only after
// the response is in its frame — the package's tests run with released
// buffers poisoned, so a page given back any earlier arrives as 0xDB.
func TestServerReleasesBorrowedBuffers(t *testing.T) {
	released := make(chan struct{}, 8)
	lend := func(n int) *lentOne {
		resp := &lentOne{released: released}
		resp.Found, resp.Data = []bool{true}, [][]byte{bufpool.GetBytes(n)}
		copy(resp.Data[0], pattern(uint64(n), n))
		return resp
	}
	hungUp := make(chan struct{})
	mux := NewMux()
	mux.Register(wire.KindGetPagesReq, func(ctx context.Context, m wire.Msg) (wire.Msg, error) {
		switch n := m.(*wire.GetPagesReq).Ranges[0].Length; n {
		case 1: // the caller goes away before there is anything to write
			<-ctx.Done()
			close(hungUp)
			return lend(int(n)), nil
		case 2: // a failed handler's response is never looked at
			return lend(int(n)), wire.NewError(wire.CodeUnavailable, "refused")
		default:
			return lend(int(n)), nil
		}
	})
	net := transport.NewInproc()
	ln, err := net.Listen("server")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(ln, vclock.NewReal(), mux)
	defer srv.Close()
	cl := NewClient(net, vclock.NewReal())
	defer cl.Close()
	ctx := context.Background()

	releases := func(want int, when string) {
		t.Helper()
		for i := 0; i < want; i++ {
			select {
			case <-released:
			case <-time.After(10 * time.Second):
				t.Fatalf("%s: %d of %d releases", when, i, want)
			}
		}
		select {
		case <-released:
			t.Fatalf("%s: released more than %d times", when, want)
		case <-time.After(10 * time.Millisecond):
		}
	}

	const n = 70000
	resp, err := cl.Call(ctx, srv.Addr(), onePage(wire.PageID{}, n))
	if err != nil || !bytes.Equal(resp.(*wire.GetPagesResp).Data[0], pattern(n, n)) {
		t.Fatalf("a lent page arrived damaged: %v", err)
	}
	releases(1, "response framed and written")

	if _, err := cl.Call(ctx, srv.Addr(), onePage(wire.PageID{}, MaxFrameBody+1)); err == nil {
		t.Fatal("an oversize response produced no client error")
	}
	releases(1, "response too large to frame, error response sent")

	if _, err := cl.Call(ctx, srv.Addr(), onePage(wire.PageID{}, 2)); wire.CodeOf(err) != wire.CodeUnavailable {
		t.Fatalf("err = %v, want the handler's", err)
	}
	releases(0, "handler failed")

	gone := NewClient(net, vclock.NewReal())
	cctx, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancel()
	if _, err := gone.Call(cctx, srv.Addr(), onePage(wire.PageID{}, 1)); err == nil {
		t.Fatal("a call nobody answers returned")
	}
	gone.Close()
	<-hungUp
	releases(1, "client hung up before the write")
}
