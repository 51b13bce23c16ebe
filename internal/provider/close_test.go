package provider

import (
	"testing"
	"time"

	"blobseer/internal/rpc"
	"blobseer/internal/transport"
	"blobseer/internal/vclock"
)

// TestClosePromptDespiteLongHeartbeat pins the lifecycle contract: Close
// must interrupt the heartbeat loop's sleep via context cancellation,
// not wait out the period. With a one-hour heartbeat a Close that takes
// more than a moment means the cancellation path regressed.
func TestClosePromptDespiteLongHeartbeat(t *testing.T) {
	net := transport.NewInproc()
	sched := vclock.NewReal()
	mln, err := net.Listen("manager")
	if err != nil {
		t.Fatal(err)
	}
	m := ServeManager(mln, ManagerConfig{Sched: sched})
	defer m.Close()
	cl := rpc.NewClient(net, sched)
	defer cl.Close()

	ln, err := net.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	p, err := Serve(ln, Config{
		Sched:          sched,
		ManagerAddr:    "manager",
		Client:         cl,
		HeartbeatEvery: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	p.Close()
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("Close took %v with a 1h heartbeat; cancellation is not interrupting the sleep", elapsed)
	}
}
