package rpc

import (
	"context"
	"errors"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"blobseer/internal/bufpool"
	"blobseer/internal/transport"
	"blobseer/internal/vclock"
	"blobseer/internal/wire"
)

// scriptedPeer accepts one connection on a fresh in-process network and
// hands it to script, which plays the server by hand: it reads request
// frames with nextRequest and writes whatever bytes the test wants
// back, so the test decides what arrives at the client and when.
func scriptedPeer(t *testing.T, script func(c transport.Conn)) *Client {
	t.Helper()
	net := transport.NewInproc()
	ln, err := net.Listen("server")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := ln.Accept()
		if err != nil {
			t.Error(err)
			return
		}
		defer c.Close()
		script(c)
	}()
	cl := NewClient(net, vclock.NewReal())
	t.Cleanup(func() {
		cl.Close()
		ln.Close()
		wg.Wait()
	})
	return cl
}

// nextRequest reads one request frame off c and returns its id.
func nextRequest(t *testing.T, c transport.Conn) uint64 {
	id, _, body, err := readFrame(c)
	if err != nil {
		t.Errorf("scripted peer: %v", err)
		return 0
	}
	bufpool.Put(body)
	return id
}

// answer writes the echo of id.
func answer(t *testing.T, c transport.Conn, id uint64) {
	frame, err := appendFrame(nil, id, &wire.SizeResp{Size: id})
	if err != nil {
		t.Error(err)
	}
	if _, err := c.Write(frame); err != nil {
		t.Errorf("scripted peer: %v", err)
	}
}

// TestAbandonedResponseIsNotDecoded: the answer to a call whose caller
// has gone — a cancelled read, every hedge loser — is skipped by its
// length prefix, not decoded page by page into memory nobody will look
// at, and the stream stays in step for the next call.
func TestAbandonedResponseIsNotDecoded(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop a quarter of what it is given")
	}
	const pageSize = 64 << 10
	page := pattern(7, pageSize)
	late := &wire.GetPagesResp{Found: []bool{true, true, true, true}, Data: [][]byte{page, page, page, page}}
	got, send := make(chan struct{}), make(chan struct{})
	cl := scriptedPeer(t, func(c transport.Conn) {
		answer(t, c, nextRequest(t, c)) // warm-up
		frame, err := appendFrame(nil, nextRequest(t, c), late)
		if err != nil {
			t.Error(err)
		}
		close(got)
		<-send
		if _, err := c.Write(frame); err != nil {
			t.Errorf("scripted peer: %v", err)
		}
		answer(t, c, nextRequest(t, c))
	})
	bg := context.Background()
	// A steady-state client: the first completed call has set up the
	// per-host latency window, and the pool holds a buffer of the late
	// frame's class where the read loop will find it — no collection
	// empties the pool meanwhile, and with one P the slot this goroutine
	// fills is the slot that goroutine looks in.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if _, err := cl.Call(bg, "server", echo(0)); err != nil {
		t.Fatal(err)
	}
	bufpool.Put(bufpool.Get(wire.BodySize(late)))
	ctx, cancel := context.WithCancel(bg)
	go func() {
		<-got
		cancel()
	}()
	if _, err := cl.Call(ctx, "server", &wire.GetPagesReq{Ranges: make([]wire.PageRange, 4)}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	close(send)
	// One connection, frames in order: once this call is answered the
	// late response has been through the read loop.
	resp, err := cl.Call(bg, "server", echo(0))
	runtime.ReadMemStats(&after)
	if err != nil || echoed(resp) != 3 {
		t.Fatalf("call after an abandoned response: %v, %v", resp, err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1024 {
		t.Fatalf("a %d-byte response nobody waited for cost the process %d bytes of heap, want < 1 KiB",
			4*pageSize, got)
	}
}

// TestUndecodableResponseFailsItsCaller: the read loop takes a call out
// of the pending set before it decodes the answer, so when the answer
// does not decode it is the loop that must fail that call — along with
// the connection and everyone else on it.
func TestUndecodableResponseFailsItsCaller(t *testing.T) {
	cl := scriptedPeer(t, func(c transport.Conn) {
		id := nextRequest(t, c)
		nextRequest(t, c)
		frame, err := appendFrame(nil, id, &wire.SizeResp{})
		if err != nil {
			t.Error(err)
		}
		frame[0]++ // a body one byte longer than a SizeResp
		if _, err := c.Write(append(frame, 0)); err != nil {
			t.Errorf("scripted peer: %v", err)
		}
	})
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := cl.Call(context.Background(), "server", echo(0))
			errs <- err
		}()
	}
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrConnBroken) {
				t.Errorf("err = %v, want ErrConnBroken", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("a call whose answer did not decode was left waiting")
		}
	}
}
