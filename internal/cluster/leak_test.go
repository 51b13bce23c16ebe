package cluster

import (
	"bytes"
	"context"
	"runtime"
	"testing"
	"time"
	"weak"

	"blobseer/internal/client"
	"blobseer/internal/transport"
	"blobseer/internal/vclock"
)

// TestCloseLeavesNoGoroutines fences a full start/traffic/stop cycle
// with runtime goroutine counts: every loop the cluster spawns —
// accept loops, connection readers, per-request handlers, heartbeats,
// the dead-writer sweeper, seglog maintainers — must be joined by
// Close. Run under -race this doubles as the leak regression test the
// goleak analyzer's static guarantees are checked against.
func TestCloseLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()

	net := transport.NewInproc()
	cl, err := StartInproc(net, vclock.NewReal(), Config{
		DataProviders:     2,
		MetaProviders:     2,
		HeartbeatEvery:    5 * time.Millisecond, // many beats during the test
		DeadWriterTimeout: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := cl.NewClient("")
	if err != nil {
		cl.Close()
		t.Fatal(err)
	}

	ctx := context.Background()
	id, err := c.Create(ctx, 128)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("goroutine fence traffic 0123456789")
	v, err := c.Append(ctx, id, data)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Sync(ctx, id, v); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := c.Read(ctx, id, v, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read back mismatch")
	}

	c.Close()
	cl.Close()
	net.Close()

	// Joined goroutines can take a few scheduler ticks to fully exit
	// after their WaitGroup.Done, so poll with a deadline instead of
	// asserting instantly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutines: %d before, %d after close; stacks:\n%s",
				before, runtime.NumGoroutine(), buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestClosedClientIsCollectable: a client closed and dropped while the
// cluster runs is garbage, page cache and all — the cluster keeps it
// only to close it, and it is closed. A benchmark dials a fresh
// cold-cache reader per cycle; were each kept, its decoded pages would
// pile up for the life of the cluster. A client still in use is closed
// by Cluster.Close as before.
func TestClosedClientIsCollectable(t *testing.T) {
	net := transport.NewInproc()
	defer net.Close()
	cl, err := StartInproc(net, vclock.NewReal(), Config{DataProviders: 2, MetaProviders: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	kept, err := cl.NewClient("")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	id, err := kept.Create(ctx, 4096)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("collectable "), 4096) // a dozen pages
	v, err := kept.Append(ctx, id, data)
	if err != nil {
		t.Fatal(err)
	}
	if err := kept.Sync(ctx, id, v); err != nil {
		t.Fatal(err)
	}

	// Built, used and closed in a frame of its own, so nothing on this
	// stack keeps it alive.
	gone := func() weak.Pointer[client.Client] {
		c, err := cl.NewClient("")
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(data))
		if err := c.Read(ctx, id, v, got, 0); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("read through the doomed client: %v", err)
		}
		if st := c.PageCacheStats(); st.Misses == 0 {
			t.Fatalf("the read cached no pages: %+v", st)
		}
		c.Close()
		return weak.Make(c)
	}()
	for i := 0; i < 5 && gone.Value() != nil; i++ {
		runtime.GC()
	}
	if gone.Value() != nil {
		t.Fatal("a closed, dropped client is still reachable while the cluster runs")
	}

	// Later clients prune the dead entry; the live one still works and
	// Cluster.Close closes it.
	if _, err := cl.NewClient(""); err != nil {
		t.Fatal(err)
	}
	if len(cl.clients) != 2 {
		t.Fatalf("cluster tracks %d clients, want the 2 alive", len(cl.clients))
	}
	if _, _, err := kept.Recent(ctx, id); err != nil {
		t.Fatal(err)
	}
	cl.Close()
	if _, _, err := kept.Recent(ctx, id); err == nil {
		t.Fatal("Cluster.Close left a live client open")
	}
}
