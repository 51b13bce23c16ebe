package rpc

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"blobseer/internal/bufpool"
	"blobseer/internal/transport"
	"blobseer/internal/vclock"
	"blobseer/internal/wire"
)

// pattern is n deterministic bytes derived from seed, distinct per seed.
func pattern(seed uint64, n int) []byte {
	p := make([]byte, n)
	x := seed*0x9E3779B97F4A7C15 + 1
	for i := range p {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		p[i] = byte(x)
	}
	return p
}

// pageID packs a seed and a payload size into a page id, so a handler
// can regenerate the payload a page must carry from the id alone.
func pageID(seed uint64, n int) wire.PageID {
	var id wire.PageID
	binary.LittleEndian.PutUint64(id[0:8], seed)
	binary.LittleEndian.PutUint64(id[8:16], uint64(n))
	return id
}

func pageOf(id wire.PageID) []byte {
	return pattern(binary.LittleEndian.Uint64(id[0:8]), int(binary.LittleEndian.Uint64(id[8:16])))
}

// TestGarbageLengthAllocatesOnce feeds readFrame a length prefix that
// is legal but absurd, with no body behind it: the one buffer it costs
// is not kept.
func TestGarbageLengthAllocatesOnce(t *testing.T) {
	const n = MaxFrameBody - 1
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, body, err := readFrame(bytes.NewReader(hdr[:]))
	runtime.ReadMemStats(&after)
	if err == nil || body != nil {
		t.Fatalf("bodyless frame accepted: %v", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > n+n/8 {
		t.Fatalf("a %d-byte length prefix allocated %d bytes", n, got)
	}
	for i := 0; i < 64; i++ {
		if p := bufpool.Get(bufpool.MaxPooled); cap(*p) != bufpool.MaxPooled {
			t.Fatalf("the oversize body was pooled: cap %d", cap(*p))
		}
	}
}

// allocPerOp reports the bytes the whole process allocates per call of
// op, after a warm-up that fills the frame pool and grows the
// connection buffers. The collector is held off meanwhile: a cycle
// empties sync.Pools, and how many cycles fall into the window depends
// on what else the test binary has allocated, not on the code measured.
func allocPerOp(n int, op func()) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for i := 0; i < 20; i++ {
		op()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		op()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// TestPagePathAllocBudget pins the page path's heap traffic per round
// trip, client and server together: a page written costs (almost)
// nothing, a page read costs the one exact-size copy the caller keeps.
func TestPagePathAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop a quarter of what it is given")
	}
	const pageSize = 64 << 10
	page := pattern(1, pageSize)
	sum := crc32.ChecksumIEEE(page)
	pages := [][]byte{pattern(2, pageSize), pattern(3, pageSize), pattern(4, pageSize), pattern(5, pageSize)}
	found := []bool{true, true, true, true}

	mux := NewMux()
	mux.Register(wire.KindPutPageReq, func(_ context.Context, m wire.Msg) (wire.Msg, error) {
		req := m.(*wire.PutPageReq)
		if crc32.ChecksumIEEE(req.Data) != sum {
			return nil, wire.NewError(wire.CodeBadRequest, "page arrived damaged")
		}
		if req.Page[0] == 0xEE {
			return nil, wire.NewError(wire.CodeUnavailable, "refused")
		}
		return &wire.PutPageResp{}, nil
	})
	mux.Register(wire.KindGetPagesReq, func(context.Context, wire.Msg) (wire.Msg, error) {
		return &wire.GetPagesResp{Found: found, Data: pages}, nil
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

	put := &wire.PutPageReq{Page: wire.PageID{1}, Data: page}
	refused := &wire.PutPageReq{Page: wire.PageID{0xEE}, Data: page}
	get := &wire.GetPagesReq{Ranges: make([]wire.PageRange, len(pages))}
	for _, tc := range []struct {
		name    string
		payload int
		budget  float64 // × payload
		op      func()
	}{
		{"PUT_PAGE", pageSize, 0.1, func() {
			if _, err := cl.Call(ctx, srv.Addr(), put); err != nil {
				t.Fatal(err)
			}
		}},
		{"PUT_PAGE refused by its handler", pageSize, 0.1, func() {
			if _, err := cl.Call(ctx, srv.Addr(), refused); wire.CodeOf(err) != wire.CodeUnavailable {
				t.Fatal(err)
			}
		}},
		{"GET_PAGES x4", len(pages) * pageSize, 1.1, func() {
			resp, err := cl.Call(ctx, srv.Addr(), get)
			if err != nil {
				t.Fatal(err)
			}
			if data := resp.(*wire.GetPagesResp).Data; !bytes.Equal(data[3], pages[3]) {
				t.Fatal("page read back damaged")
			}
		}},
	} {
		got := allocPerOp(200, tc.op)
		t.Logf("%s: %.0f B/op allocated, %.3f x its %d-byte payload", tc.name, got, got/float64(tc.payload), tc.payload)
		if got > tc.budget*float64(tc.payload) {
			t.Errorf("%s allocates %.0f B per round trip, budget %.1f x %d", tc.name, got, tc.budget, tc.payload)
		}
	}
}

// TestSharedConnectionStress mixes page writes (decoded by alias into a
// recycled body), batched page reads (marshalled into a recycled frame)
// and metadata puts (retained by the handler past its return) from 16
// goroutines over one connection, every payload distinct and every byte
// checked on arrival. With released buffers poisoned, any byte read
// after its buffer's release fails the comparison.
func TestSharedConnectionStress(t *testing.T) {
	var kept sync.Map // DHT key -> value, as retained by the handler
	mux := NewMux()
	mux.Register(wire.KindPutPageReq, func(_ context.Context, m wire.Msg) (wire.Msg, error) {
		req := m.(*wire.PutPageReq)
		if !bytes.Equal(req.Data, pageOf(req.Page)) {
			return nil, wire.NewError(wire.CodeBadRequest, "page %v arrived damaged", req.Page)
		}
		return &wire.PutPageResp{}, nil
	})
	mux.Register(wire.KindGetPagesReq, func(_ context.Context, m wire.Msg) (wire.Msg, error) {
		req := m.(*wire.GetPagesReq)
		resp := &wire.GetPagesResp{}
		for _, pr := range req.Ranges {
			resp.Found = append(resp.Found, true)
			resp.Data = append(resp.Data, pageOf(pr.Page))
		}
		return resp, nil
	})
	// DHT_DELETE's decoder copies its keys out of the frame, so the
	// handler may keep them: the second key stands for a value.
	mux.Register(wire.KindDHTDeleteReq, func(_ context.Context, m wire.Msg) (wire.Msg, error) {
		req := m.(*wire.DHTDeleteReq)
		kept.Store(string(req.Keys[0]), req.Keys[1])
		return &wire.DHTDeleteResp{}, nil
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

	const workers, rounds = 16, 60
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; i < rounds; i++ {
				seed := uint64(g*rounds + i + 1)
				size := 1 + int(seed*2654435761%(96<<10))
				var err error
				switch (g + i) % 3 {
				case 0:
					id := pageID(seed, size)
					_, err = cl.Call(ctx, srv.Addr(), &wire.PutPageReq{Page: id, Data: pageOf(id)})
				case 1:
					req := &wire.GetPagesReq{}
					for k := 0; k < 3; k++ {
						req.Ranges = append(req.Ranges, wire.PageRange{Page: pageID(seed<<8|uint64(k), size/(k+1))})
					}
					var resp wire.Msg
					if resp, err = cl.Call(ctx, srv.Addr(), req); err == nil {
						for k, data := range resp.(*wire.GetPagesResp).Data {
							if !bytes.Equal(data, pageOf(req.Ranges[k].Page)) {
								err = fmt.Errorf("page %d of batch %d read back damaged", k, seed)
							}
						}
					}
				case 2:
					_, err = cl.Call(ctx, srv.Addr(), &wire.DHTDeleteReq{Keys: [][]byte{
						[]byte(fmt.Sprintf("node/%d", seed)),
						pattern(seed, size%4096),
					}})
				}
				if err != nil {
					t.Errorf("worker %d round %d: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	var n int
	kept.Range(func(k, v any) bool {
		n++
		var seed uint64
		fmt.Sscanf(k.(string), "node/%d", &seed)
		size := 1 + int(seed*2654435761%(96<<10))
		if !bytes.Equal(v.([]byte), pattern(seed, size%4096)) {
			t.Errorf("metadata value %s was damaged after its handler returned", k)
		}
		return true
	})
	if n == 0 {
		t.Fatal("no metadata put was retained")
	}
}
