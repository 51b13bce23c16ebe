package rpc

import (
	"context"
	"testing"

	"blobseer/internal/transport"
	"blobseer/internal/vclock"
	"blobseer/internal/wire"
)

// BenchmarkRoundTrip times and sizes the bulk calls of the page path end
// to end through client and server, over the in-process pipe and over
// loopback TCP: a 64 KiB PUT_PAGE whose handler only looks at the page,
// a GET_PAGES answered with four static 64 KiB pages, and a GET_PAGES of
// one 4 KiB range — a one-page read of small_rw's page size — answered
// with one static page. B/op counts the whole process, both sides.
func BenchmarkRoundTrip(b *testing.B) {
	const pageSize, smallPage = 64 << 10, 4 << 10
	page := pattern(1, pageSize)
	four := &wire.GetPagesResp{Found: []bool{true, true, true, true}, Data: [][]byte{page, page, page, page}}
	one := &wire.GetPagesResp{Found: []bool{true}, Data: [][]byte{page[:smallPage]}}
	mux := NewMux()
	mux.Register(wire.KindPutPageReq, func(_ context.Context, m wire.Msg) (wire.Msg, error) {
		if d := m.(*wire.PutPageReq).Data; d[0] != page[0] || d[pageSize-1] != page[pageSize-1] {
			return nil, wire.NewError(wire.CodeBadRequest, "page arrived damaged")
		}
		return &wire.PutPageResp{}, nil
	})
	mux.Register(wire.KindGetPagesReq, func(_ context.Context, m wire.Msg) (wire.Msg, error) {
		if len(m.(*wire.GetPagesReq).Ranges) == 1 {
			return one, nil
		}
		return four, nil
	})

	calls := []struct {
		name    string
		payload int64
		req     wire.Msg
	}{
		{"PUT_PAGE", pageSize, &wire.PutPageReq{Page: wire.PageID{1}, Data: page}},
		{"GET_PAGES_x4", 4 * pageSize, &wire.GetPagesReq{Ranges: make([]wire.PageRange, 4)}},
		{"GET_PAGES_x1", smallPage, &wire.GetPagesReq{Ranges: []wire.PageRange{{Length: smallPage}}}},
	}
	nets := []struct {
		name   string
		net    transport.Network
		listen string
	}{
		{"pipe", transport.NewInproc(), "server"},
		{"tcp", transport.TCP{}, "127.0.0.1:0"},
	}
	for _, call := range calls {
		for _, nw := range nets {
			b.Run(call.name+"/"+nw.name, func(b *testing.B) {
				ln, err := nw.net.Listen(nw.listen)
				if err != nil {
					b.Fatal(err)
				}
				srv := Serve(ln, vclock.NewReal(), mux)
				defer srv.Close()
				cl := NewClient(nw.net, vclock.NewReal())
				defer cl.Close()
				ctx := context.Background()
				b.ReportAllocs()
				b.SetBytes(call.payload)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := cl.Call(ctx, srv.Addr(), call.req); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
