package cluster

import (
	"bytes"
	"context"
	"testing"
	"time"

	"blobseer/internal/client"
	"blobseer/internal/simnet"
	"blobseer/internal/transport"
	"blobseer/internal/vclock"
)

// TestKillRestartMidWorkload runs a writer against a durable in-process
// cluster and, between its appends, kills and restarts a data provider,
// then a metadata node, then the version manager. Each kill is seen to
// land: the writer's own read of the newest version fails while the
// service is down (it keeps no metadata cache, so the read descends
// through every metadata node holding the tree). That failed call is
// also what retires the writer's connection to the dead service, so the
// next call after the restart dials afresh. Each restart reopens the
// service's log on its old address, so the writer carries on with the
// ring and provider registry it had. Every acknowledged version must
// then read back byte for byte, through the writer and through a fresh
// client.
func TestKillRestartMidWorkload(t *testing.T) {
	const pageSize, appendsPerPhase = 4096, 4
	cl := durableCluster(t)
	ctx := context.Background()
	w, err := cl.NewClientCfg("", func(c *client.Config) { c.MetaCacheNodes = -1 })
	if err != nil {
		t.Fatal(err)
	}
	id, err := w.Create(ctx, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	var blob []byte
	sizes := map[uint64]int{} // acknowledged version -> its size
	var latest uint64
	appendPhase := func(phase int) {
		t.Helper()
		for j := 0; j < appendsPerPhase; j++ {
			// Unaligned lengths, so every append shares a page with the last.
			chunk := make([]byte, 3*pageSize+100*(phase+1))
			for k := range chunk {
				chunk[k] = byte(phase*31 + j*7 + k)
			}
			v, err := w.Append(ctx, id, chunk)
			if err != nil {
				t.Fatalf("phase %d append %d: %v", phase, j, err)
			}
			if err := w.Sync(ctx, id, v); err != nil {
				t.Fatalf("phase %d sync %d: %v", phase, j, err)
			}
			blob = append(blob, chunk...)
			sizes[v], latest = len(blob), v
		}
	}

	appendPhase(0)
	for phase, svc := range []struct {
		role string
		i    int
	}{{"data", 1}, {"metadata", 2}, {"version-manager", 0}} {
		if err := cl.Kill(svc.role, svc.i); err != nil {
			t.Fatal(err)
		}
		if w.Read(ctx, id, latest, make([]byte, len(blob)), 0) == nil {
			t.Fatalf("a read succeeded with %s %d down", svc.role, svc.i)
		}
		if err := cl.Restart(svc.role, svc.i); err != nil {
			t.Fatalf("restart %s %d: %v", svc.role, svc.i, err)
		}
		appendPhase(phase + 1)
	}

	fresh, err := cl.NewClient("")
	if err != nil {
		t.Fatal(err)
	}
	for v, size := range sizes {
		for name, c := range map[string]func(buf []byte) error{
			"writer": func(buf []byte) error { return w.Read(ctx, id, v, buf, 0) },
			"fresh":  func(buf []byte) error { return fresh.Read(ctx, id, v, buf, 0) },
		} {
			buf := make([]byte, size)
			if err := c(buf); err != nil {
				t.Fatalf("%s client, version %d: %v", name, v, err)
			}
			if !bytes.Equal(buf, blob[:size]) {
				t.Fatalf("%s client, version %d: bytes differ from what was acknowledged", name, v)
			}
		}
	}
}

// TestRestartNeedsDurableState: a service with nothing on disk has
// nothing to come back from, and Restart says so instead of starting it
// empty.
func TestRestartNeedsDurableState(t *testing.T) {
	cl := durableCluster(t)
	if err := cl.Restart("provider-manager", 0); err == nil {
		t.Fatal("restarted the provider manager, which keeps no durable state")
	}
	net := transport.NewInproc()
	defer net.Close()
	mem, err := StartInproc(net, vclock.NewReal(), Config{HeartbeatEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	for _, role := range []string{"version-manager", "metadata", "data"} {
		if err := mem.Restart(role, 0); err == nil {
			t.Fatalf("restarted an in-memory %s", role)
		}
	}
	if err := cl.Kill("data", 99); err == nil {
		t.Fatal("killed a data provider the cluster does not have")
	}
}

// TestSimKillTakesNoVirtualTime: Kill of a data provider joins its
// heartbeat loop, and Kill of the version manager its dead-writer
// sweeper, each asleep for an hour of virtual time. Close wakes each
// loop through the scheduler, so neither Kill moves the clock.
func TestSimKillTakesNoVirtualTime(t *testing.T) {
	clock := vclock.NewVirtual(0)
	net := simnet.New(clock, simnet.Config{})
	err := clock.Run(func() {
		cl, err := StartSim(net, clock, Config{
			DataProviders: 2, MetaProviders: 2, HeartbeatEvery: time.Hour, DeadWriterTimeout: time.Hour,
		})
		if err != nil {
			t.Error(err)
			return
		}
		defer cl.Close()
		clock.Sleep(time.Second) // every loop is asleep
		for _, role := range []string{roleData, roleVM} {
			before := clock.Now()
			if err := cl.Kill(role, 0); err != nil {
				t.Error(err)
			}
			if took := clock.Now() - before; took != 0 {
				t.Errorf("Kill %s 0 took %v of virtual time", role, took)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
