package rpc

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"blobseer/internal/transport"
	"blobseer/internal/vclock"
)

// dialWrapped is a network whose client connections pass through wrap.
type dialWrapped struct {
	transport.Network
	wrap func(transport.Conn) transport.Conn
}

func (n dialWrapped) Dial(ctx context.Context, addr string) (transport.Conn, error) {
	c, err := n.Network.Dial(ctx, addr)
	if err != nil {
		return nil, err
	}
	return n.wrap(c), nil
}

// lateCancelConn is a client connection that, once armed, holds the
// armed call's request Write until the client's read loop has fired
// that call's reply — the loop has read the reply's last byte and come
// back for the next frame — and then cancels the call's context. The
// call's Wait then finds both its reply and its cancellation ready.
type lateCancelConn struct {
	transport.Conn

	mu      sync.Mutex
	changed *sync.Cond
	read    int // reply bytes the read loop has taken
	entered int // read, as of the read loop's latest call to Read
	target  int // the armed reply's end in the stream; 0 when unarmed
	cancel  context.CancelFunc
}

func newLateCancelConn(c transport.Conn) *lateCancelConn {
	lc := &lateCancelConn{Conn: c}
	lc.changed = sync.NewCond(&lc.mu)
	return lc
}

// arm makes the next request Write wait for a reply of replyLen bytes
// to be fired, then call cancel.
func (c *lateCancelConn) arm(replyLen int, cancel context.CancelFunc) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.target, c.cancel = c.read+replyLen, cancel
}

func (c *lateCancelConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	c.entered = c.read
	c.changed.Broadcast()
	c.mu.Unlock()
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.read += n
	c.mu.Unlock()
	return n, err
}

func (c *lateCancelConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if err != nil {
		return n, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.target == 0 {
		return n, nil
	}
	giveUp := time.AfterFunc(5*time.Second, func() {
		c.mu.Lock()
		c.target = -1 // the reply never came: stop waiting
		c.changed.Broadcast()
		c.mu.Unlock()
	})
	defer giveUp.Stop()
	for c.target > 0 && c.entered < c.target {
		c.changed.Wait()
	}
	c.target = 0
	c.cancel()
	return n, nil
}

// TestCancelAfterDeliveredReplyKeepsRepliesMatched builds the case
// where a call's context is already done when its reply has been
// delivered, so its Wait sees two ready cases and may take either. A
// call that reports the cancellation has not consumed its reply event,
// which must therefore never be reused: every later reply on the
// connection still answers its own request.
func TestCancelAfterDeliveredReplyKeepsRepliesMatched(t *testing.T) {
	var conn *lateCancelConn
	inproc := transport.NewInproc()
	net := dialWrapped{Network: inproc, wrap: func(c transport.Conn) transport.Conn {
		conn = newLateCancelConn(c)
		return conn
	}}
	sched := vclock.NewReal()
	ln, err := inproc.Listen("server")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(ln, sched, echoHandler())
	defer srv.Close()
	cl := NewClient(net, sched)
	defer cl.Close()

	call := func(ctx context.Context, n uint64) error {
		ctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		defer cancel()
		resp, err := cl.Call(ctx, srv.Addr(), echo(n))
		if err != nil {
			return err
		}
		if got := echoed(resp); got != n {
			t.Fatalf("request %d answered with %d's reply", n, got)
		}
		return nil
	}
	if err := call(context.Background(), 0); err != nil { // dials
		t.Fatal(err)
	}
	const rounds = 128
	cancelled := 0
	for i := uint64(1); i <= rounds; i++ {
		armed := 2*i - 1
		reply, err := appendFrame(nil, 0, echoOf(echo(armed)))
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		conn.arm(len(reply), cancel)
		switch err := call(ctx, armed); {
		case errors.Is(err, context.Canceled):
			cancelled++
		case err != nil:
			t.Fatalf("armed request %d: %v", armed, err)
		}
		cancel()
		if err := call(context.Background(), 2*i); err != nil {
			t.Fatalf("request %d after armed request %d: %v", 2*i, armed, err)
		}
	}
	t.Logf("%d of %d armed calls reported the cancellation", cancelled, rounds)
	if cancelled == 0 {
		t.Fatal("no armed call took the cancellation: the test did not build its case")
	}
}
