package provider

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"sync"
	"testing"
	"time"
	"unsafe"

	"blobseer/internal/pagestore"
	"blobseer/internal/rpc"
	"blobseer/internal/transport"
	"blobseer/internal/vclock"
	"blobseer/internal/wire"
)

// ledgerStore is a page engine that keeps books on what it lends: every
// slice a successful Get hands out is on loan until Release brings that
// same slice back, once. Four page ids are special, so a test can stage
// the exits a real engine makes hard to reach.
type ledgerStore struct {
	pagestore.Store
	huge    []byte        // what hugePage and oversizePage read as, by length
	entered chan struct{} // closed when slowPage's Get is entered,
	hold    chan struct{} // which returns once this is closed

	mu       sync.Mutex
	out      map[*byte]int // first byte of a lent slice -> times on loan
	lent     int
	released int
	bad      []string
}

var (
	brokenPage   = wire.PageID{0xBB} // Get fails with an error of the engine's own
	hugePage     = wire.PageID{0xCC} // more than half the GET_PAGES byte cap
	oversizePage = wire.PageID{0xDD} // more than one frame can carry
	slowPage     = wire.PageID{0xEE} // Get blocks until the test lets it go (once)
)

var errBrokenDisk = errors.New("ledger: medium error")

func newLedger(inner pagestore.Store) *ledgerStore {
	return &ledgerStore{
		Store:   inner,
		huge:    make([]byte, rpc.MaxFrameBody+1),
		entered: make(chan struct{}),
		hold:    make(chan struct{}),
		out:     make(map[*byte]int),
	}
}

func (s *ledgerStore) Get(id wire.PageID, off, length uint32) ([]byte, error) {
	var data []byte
	switch id {
	case brokenPage:
		return nil, errBrokenDisk
	case hugePage:
		data = s.huge[:wire.MaxGetPagesBytes/2+1]
	case oversizePage:
		data = s.huge
	case slowPage:
		close(s.entered)
		<-s.hold
		data = s.huge[:1]
	default:
		var err error
		if data, err = s.Store.Get(id, off, length); err != nil {
			return nil, err
		}
	}
	s.mu.Lock()
	s.out[unsafe.SliceData(data)]++
	s.lent++
	s.mu.Unlock()
	return data, nil
}

func (s *ledgerStore) Release(data []byte) {
	s.mu.Lock()
	if p := unsafe.SliceData(data); s.out[p] > 0 {
		s.out[p]--
	} else {
		s.bad = append(s.bad, fmt.Sprintf("release of %d bytes that are not on loan", len(data)))
	}
	s.released++
	s.mu.Unlock()
	s.Store.Release(data)
}

// settled waits until nothing is on loan — the server releases on its
// own goroutine, after the handler — and checks the books since the
// last call: lends loans made, as many given back, none of them wrong.
func (s *ledgerStore) settled(t *testing.T, when string, lends int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		s.mu.Lock()
		open := 0
		for _, n := range s.out {
			open += n
		}
		lent, released, bad := s.lent, s.released, s.bad
		if open == 0 {
			s.lent, s.released = 0, 0
		}
		s.mu.Unlock()
		switch {
		case len(bad) > 0:
			t.Fatalf("%s: %v", when, bad)
		case open == 0 && (lent != lends || released != lends):
			t.Fatalf("%s: %d buffers lent and %d released, want %d of each", when, lent, released, lends)
		case open == 0:
			return
		case time.Now().After(deadline):
			t.Fatalf("%s: %d of %d lent buffers never came back", when, open, lent)
		}
	}
}

// serveStore starts a provider over store on a private in-process
// network and returns its address and a client for it.
func serveStore(t *testing.T, store pagestore.Store) (string, *rpc.Client, *transport.Inproc) {
	t.Helper()
	net := transport.NewInproc()
	ln, err := net.Listen("provider")
	if err != nil {
		t.Fatal(err)
	}
	p, err := Serve(ln, Config{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	cl := rpc.NewClient(net, vclock.NewReal())
	t.Cleanup(func() {
		cl.Close()
		p.Close()
		net.Close()
	})
	return p.Addr(), cl, net
}

// TestEveryLentPageReleasedOnce walks GET_PAGES out of every exit it
// has and checks the engine's books after each: what
// Get lent came back through Release exactly once, and nothing else did
// — not a missing entry, not a buffer twice.
func TestEveryLentPageReleasedOnce(t *testing.T) {
	store := newLedger(pagestore.NewMem())
	addr, cl, net := serveStore(t, store)
	ctx := context.Background()
	whole := func(ids ...wire.PageID) *wire.GetPagesReq {
		req := &wire.GetPagesReq{}
		for _, id := range ids {
			req.Ranges = append(req.Ranges, wire.PageRange{Page: id, Length: wire.WholePage})
		}
		return req
	}
	a, b, c, missing := wire.PageID{1}, wire.PageID{2}, wire.PageID{3}, wire.PageID{9}
	for _, id := range []wire.PageID{a, b, c} {
		if _, err := cl.Call(ctx, addr, &wire.PutPageReq{Page: id, Data: []byte("0123456789")}); err != nil {
			t.Fatal(err)
		}
	}

	if _, err := cl.Call(ctx, addr, whole(a)); err != nil {
		t.Fatal(err)
	}
	store.settled(t, "one page served", 1)

	resp, err := cl.Call(ctx, addr, whole(a, missing, b, c))
	if err != nil {
		t.Fatal(err)
	}
	if f := resp.(*wire.GetPagesResp).Found; !f[0] || f[1] || !f[2] || !f[3] {
		t.Fatalf("found = %v", f)
	}
	store.settled(t, "GET_PAGES served around a missing entry", 3)

	bad := whole(a, b, c)
	bad.Ranges[2].Offset = 11
	if _, err := cl.Call(ctx, addr, bad); !wire.IsOutOfBounds(err) {
		t.Fatalf("err = %v, want out-of-bounds", err)
	}
	store.settled(t, "bad range at the third entry", 2)

	if _, err := cl.Call(ctx, addr, whole(a, b, brokenPage, c)); err == nil || wire.IsNotFound(err) {
		t.Fatalf("err = %v, want the engine's", err)
	}
	store.settled(t, "engine error at the third entry", 2)

	if _, err := cl.Call(ctx, addr, whole(a, hugePage, hugePage)); !isBadRequest(err) {
		t.Fatalf("err = %v, want bad-request", err)
	}
	store.settled(t, "byte cap tripped by the third entry", 3)

	if _, err := cl.Call(ctx, addr, whole(oversizePage)); err == nil {
		t.Fatal("a page no frame can carry was served")
	}
	store.settled(t, "GET_PAGES response failed to encode", 1)

	// A client that hangs up while the engine is still reading: the
	// response is built for nobody, and its pages come back all the same.
	gone := rpc.NewClient(net, vclock.NewReal())
	cctx, cancel := context.WithCancel(ctx)
	go func() {
		<-store.entered
		cancel()
	}()
	if _, err := gone.Call(cctx, addr, whole(a, slowPage)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	gone.Close()
	close(store.hold)
	store.settled(t, "client hung up before the write", 2)
}

// TestConcurrentReadsSeeWholePages has 8 readers fetch overlapping
// batches from a durable engine and from an in-memory one and checksum
// every page that arrives. Released buffers are poisoned in this
// package's tests: a page handed back before its response was framed,
// or a stored Mem page handed to the pool at all, reads as 0xDB on
// every run, not on a lucky one.
func TestConcurrentReadsSeeWholePages(t *testing.T) {
	disk, err := pagestore.OpenDisk(filepath.Join(t.TempDir(), "pages"), pagestore.DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	for name, inner := range map[string]pagestore.Store{"Disk": disk, "Mem": pagestore.NewMem()} {
		t.Run(name, func(t *testing.T) {
			store := newLedger(inner)
			addr, cl, _ := serveStore(t, store)
			ctx := context.Background()
			const pages, readers, rounds = 24, 8, 40
			id := func(i int) wire.PageID { return wire.PageID{byte(i + 1), 0x5A} }
			sums := make([]uint32, pages)
			for i := range sums {
				page := make([]byte, 1000+i*2731) // 1 KB to 64 KB: several pool classes
				for j := range page {
					page[j] = byte(i + j*7)
				}
				sums[i] = crc32.ChecksumIEEE(page)
				if _, err := cl.Call(ctx, addr, &wire.PutPageReq{Page: id(i), Data: page}); err != nil {
					t.Fatal(err)
				}
			}
			var wg sync.WaitGroup
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					for round := 0; round < rounds; round++ {
						req := &wire.GetPagesReq{}
						for k := 0; k < 5; k++ {
							req.Ranges = append(req.Ranges, wire.PageRange{Page: id((r + round*3 + k*5) % pages), Length: wire.WholePage})
						}
						resp, err := cl.Call(ctx, addr, req)
						if err != nil {
							t.Errorf("reader %d round %d: %v", r, round, err)
							return
						}
						for k, data := range resp.(*wire.GetPagesResp).Data {
							if n := (r + round*3 + k*5) % pages; crc32.ChecksumIEEE(data) != sums[n] {
								t.Errorf("reader %d round %d: page %d arrived damaged", r, round, n)
								return
							}
						}
					}
				}(r)
			}
			wg.Wait()
			store.settled(t, "after the readers", readers*rounds*5)
		})
	}
}
