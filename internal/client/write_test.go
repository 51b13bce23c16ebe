package client_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"blobseer/internal/cluster"
	"blobseer/internal/rpc"
	"blobseer/internal/transport"
	"blobseer/internal/vclock"
	"blobseer/internal/wire"
)

// TestUnalignedWriteWaitsUnderItsContext: an unaligned Write merges the
// boundary bytes of its predecessor, so it waits for that predecessor
// to publish. When the predecessor was assigned and will never complete
// (no dead-writer sweeper runs here), cancelling the writer's context
// must end the wait, and the Write returns the context's error.
func TestUnalignedWriteWaitsUnderItsContext(t *testing.T) {
	net := transport.NewInproc()
	sched := vclock.NewReal()
	cl, err := cluster.StartInproc(net, sched, cluster.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		cl.Close()
		net.Close()
	}()
	c, err := cl.NewClient("")
	if err != nil {
		t.Fatal(err)
	}
	id, err := c.Create(ctxb(), 256)
	if err != nil {
		t.Fatal(err)
	}
	v, err := c.Append(ctxb(), id, pattern(1, 1024))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Sync(ctxb(), id, v); err != nil {
		t.Fatal(err)
	}
	// The predecessor: an ASSIGN nobody completes.
	abandoner := rpc.NewClient(net, sched)
	defer abandoner.Close()
	if _, err := abandoner.Call(ctxb(), cl.VM.Addr(), &wire.AssignReq{Blob: id, Size: 256, Append: true}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(ctxb())
	done := make(chan error, 1)
	go func() {
		_, err := c.Write(ctx, id, pattern(2, 100), 10)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the Write reach its wait
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("the cancelled Write returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the Write still waits for its predecessor after its context was cancelled")
	}
}
