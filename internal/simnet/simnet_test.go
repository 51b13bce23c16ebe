package simnet

import (
	"context"
	"io"
	"math"
	"testing"
	"time"

	"blobseer/internal/rpc"
	"blobseer/internal/transport"
	"blobseer/internal/vclock"
	"blobseer/internal/wire"
)

// runSim executes fn inside a fresh simulation and fails the test on
// simulation errors (deadlock, horizon).
func runSim(t *testing.T, cfg Config, fn func(clock *vclock.Virtual, net *Net)) {
	t.Helper()
	clock := vclock.NewVirtual(0)
	net := New(clock, cfg)
	if err := clock.Run(func() { fn(clock, net) }); err != nil {
		t.Fatalf("simulation error: %v", err)
	}
}

// transfer sends size bytes from one host to another and returns the
// simulated duration from first write to full receipt.
func transfer(t *testing.T, clock *vclock.Virtual, src, dst *Host, size int) time.Duration {
	t.Helper()
	ln, err := dst.Listen("sink")
	if err != nil {
		t.Error(err)
		return 0
	}
	defer ln.Close()

	done := clock.NewEvent()
	clock.Go(func() {
		c, err := ln.Accept()
		if err != nil {
			done.Fire(err)
			return
		}
		n, err := io.Copy(io.Discard, c)
		if err != nil {
			done.Fire(err)
			return
		}
		done.Fire(n)
	})

	c, err := src.Dial(context.Background(), dst.Name()+":sink")
	if err != nil {
		t.Error(err)
		return 0
	}
	start := clock.Now()
	buf := make([]byte, 64<<10)
	left := size
	for left > 0 {
		n := len(buf)
		if n > left {
			n = left
		}
		if _, err := c.Write(buf[:n]); err != nil {
			t.Error(err)
			return 0
		}
		left -= n
	}
	c.Close()
	v, _ := done.Wait(nil)
	if got, ok := v.(int64); !ok || got != int64(size) {
		t.Errorf("received %v bytes, want %d", v, size)
	}
	return clock.Now() - start
}

func TestSingleFlowBandwidthCalibration(t *testing.T) {
	// One flow on an idle network must achieve the configured link rate:
	// the paper's measured 117.5 MB/s.
	runSim(t, Config{}, func(clock *vclock.Virtual, net *Net) {
		const size = 64 << 20
		elapsed := transfer(t, clock, net.Host("a"), net.Host("b"), size)
		bw := float64(size) / elapsed.Seconds()
		if math.Abs(bw-117.5*MBps)/117.5/MBps > 0.02 {
			t.Errorf("bandwidth = %.1f MB/s, want ~117.5", bw/MBps)
		}
	})
}

func TestLatencyRoundTrip(t *testing.T) {
	runSim(t, Config{}, func(clock *vclock.Virtual, net *Net) {
		a, b := net.Host("a"), net.Host("b")
		ln, _ := b.Listen("echo")
		clock.Go(func() {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			buf := make([]byte, 1)
			io.ReadFull(c, buf)
			c.Write(buf)
		})
		c, err := a.Dial(context.Background(), "b:echo")
		if err != nil {
			t.Error(err)
			return
		}
		start := clock.Now()
		c.Write([]byte{1})
		io.ReadFull(c, make([]byte, 1))
		rtt := clock.Now() - start
		// 1 byte each way: dominated by 2x propagation latency (0.1 ms).
		if rtt < 200*time.Microsecond || rtt > 300*time.Microsecond {
			t.Errorf("rtt = %v, want ~200µs", rtt)
		}
	})
}

func TestTwoFlowsShareUplink(t *testing.T) {
	// Two flows out of one node halve each other's bandwidth: total time
	// for two concurrent transfers equals one transfer at half rate.
	runSim(t, Config{}, func(clock *vclock.Virtual, net *Net) {
		src := net.Host("src")
		const size = 16 << 20
		d1 := clock.NewEvent()
		d2 := clock.NewEvent()
		clock.Go(func() { d1.Fire(transfer(t, clock, src, net.Host("d1"), size)) })
		clock.Go(func() { d2.Fire(transfer(t, clock, src, net.Host("d2"), size)) })
		v1, _ := d1.Wait(nil)
		v2, _ := d2.Wait(nil)
		for _, v := range []any{v1, v2} {
			el := v.(time.Duration)
			bw := float64(size) / el.Seconds()
			if math.Abs(bw-58.75*MBps)/(58.75*MBps) > 0.05 {
				t.Errorf("shared bandwidth = %.1f MB/s, want ~58.75", bw/MBps)
			}
		}
	})
}

// TestBottleneckedFlowLeavesItsShare pins the max-min model: A's uplink
// feeds B, whose downlink takes a tenth of it, and C. B holds the A->B
// flow to that tenth, so A->C drains at the other nine tenths of A's
// uplink; an equal split of the uplink would give it half.
func TestBottleneckedFlowLeavesItsShare(t *testing.T) {
	runSim(t, Config{}, func(clock *vclock.Virtual, net *Net) {
		const link, size = 117.5 * MBps, 4 << 20
		net.SetNodeBandwidth("b", link, link/10)
		a := net.Host("a")
		toB, toC := clock.NewEvent(), clock.NewEvent()
		clock.Go(func() { toB.Fire(transfer(t, clock, a, net.Host("b"), size)) })
		clock.Go(func() { toC.Fire(transfer(t, clock, a, net.Host("c"), size)) })
		c, _ := toC.Wait(nil)
		b, _ := toB.Wait(nil)
		if c.(time.Duration) >= b.(time.Duration) {
			t.Fatalf("A->C took %v, A->B %v: the capped flow must outlast the other", c, b)
		}
		bw := float64(size) / c.(time.Duration).Seconds()
		if want := 0.9 * link; math.Abs(bw-want)/want > 0.02 {
			t.Errorf("A->C drained at %.2f MB/s, want nine tenths of A's uplink, %.2f", bw/MBps, want/MBps)
		}
	})
}

func TestManyReadersShareServerUplink(t *testing.T) {
	// N concurrent downloads from one server each get cap/N: the
	// mechanism behind Figure 2(b)'s degradation.
	const n = 8
	runSim(t, Config{}, func(clock *vclock.Virtual, net *Net) {
		srv := net.Host("server")
		const size = 4 << 20
		evs := make([]vclock.Event, n)
		for i := 0; i < n; i++ {
			i := i
			evs[i] = clock.NewEvent()
			dst := net.Host("reader" + string(rune('0'+i)))
			clock.Go(func() { evs[i].Fire(transfer(t, clock, srv, dst, size)) })
		}
		for _, ev := range evs {
			v, _ := ev.Wait(nil)
			bw := float64(size) / v.(time.Duration).Seconds()
			want := 117.5 * MBps / n
			if math.Abs(bw-want)/want > 0.10 {
				t.Errorf("bandwidth = %.2f MB/s, want ~%.2f", bw/MBps, want/MBps)
			}
		}
	})
}

func TestLoopbackBypassesNIC(t *testing.T) {
	runSim(t, Config{}, func(clock *vclock.Virtual, net *Net) {
		h := net.Host("same")
		const size = 32 << 20
		elapsed := transfer(t, clock, h, h, size)
		bw := float64(size) / elapsed.Seconds()
		if bw < 1000*MBps {
			t.Errorf("loopback bandwidth = %.0f MB/s, want >1000", bw/MBps)
		}
	})
}

func TestAsymmetricNodeBandwidth(t *testing.T) {
	runSim(t, Config{}, func(clock *vclock.Virtual, net *Net) {
		net.SetNodeBandwidth("slow", 10*MBps, 10*MBps)
		const size = 4 << 20
		elapsed := transfer(t, clock, net.Host("slow"), net.Host("fast"), size)
		bw := float64(size) / elapsed.Seconds()
		if math.Abs(bw-10*MBps)/(10*MBps) > 0.05 {
			t.Errorf("bandwidth = %.2f MB/s, want ~10", bw/MBps)
		}
	})
}

func TestDialUnknownAddress(t *testing.T) {
	runSim(t, Config{}, func(clock *vclock.Virtual, net *Net) {
		_, err := net.Host("a").Dial(context.Background(), "b:ghost")
		if err == nil {
			t.Error("expected dial error")
		}
	})
}

func TestDuplicateListen(t *testing.T) {
	runSim(t, Config{}, func(clock *vclock.Virtual, net *Net) {
		h := net.Host("a")
		if _, err := h.Listen("svc"); err != nil {
			t.Error(err)
		}
		if _, err := h.Listen("svc"); err == nil {
			t.Error("duplicate listen should fail")
		}
	})
}

func TestCloseUnblocksPeer(t *testing.T) {
	runSim(t, Config{}, func(clock *vclock.Virtual, net *Net) {
		a, b := net.Host("a"), net.Host("b")
		ln, _ := b.Listen("svc")
		got := clock.NewEvent()
		clock.Go(func() {
			c, err := ln.Accept()
			if err != nil {
				got.Fire(err)
				return
			}
			_, err = c.Read(make([]byte, 1))
			got.Fire(err)
		})
		c, err := a.Dial(context.Background(), "b:svc")
		if err != nil {
			t.Error(err)
			return
		}
		clock.Sleep(time.Millisecond)
		c.Close()
		v, _ := got.Wait(nil)
		if v != io.EOF {
			t.Errorf("peer read after close = %v, want EOF", v)
		}
	})
}

func TestDataDrainsBeforeEOF(t *testing.T) {
	runSim(t, Config{}, func(clock *vclock.Virtual, net *Net) {
		a, b := net.Host("a"), net.Host("b")
		ln, _ := b.Listen("svc")
		got := clock.NewEvent()
		clock.Go(func() {
			c, err := ln.Accept()
			if err != nil {
				got.Fire(err)
				return
			}
			data, err := io.ReadAll(c)
			if err != nil {
				got.Fire(err)
				return
			}
			got.Fire(len(data))
		})
		c, _ := a.Dial(context.Background(), "b:svc")
		c.Write(make([]byte, 100_000))
		c.Close() // close immediately after write returns
		v, _ := got.Wait(nil)
		if v != 100_000 {
			t.Errorf("peer read %v bytes before EOF, want 100000", v)
		}
	})
}

func TestWriteAfterCloseFails(t *testing.T) {
	runSim(t, Config{}, func(clock *vclock.Virtual, net *Net) {
		a, b := net.Host("a"), net.Host("b")
		ln, _ := b.Listen("svc")
		clock.Go(func() { ln.Accept() })
		c, _ := a.Dial(context.Background(), "b:svc")
		c.Close()
		if _, err := c.Write([]byte{1}); err == nil {
			t.Error("write after close should fail")
		}
	})
}

func TestRPCOverSimnet(t *testing.T) {
	// The full rpc stack over the simulator: an echo server on one node,
	// a client on another, correct payloads and plausible timing.
	runSim(t, Config{}, func(clock *vclock.Virtual, net *Net) {
		server := net.Host("server")
		ln, err := server.Listen("echo")
		if err != nil {
			t.Error(err)
			return
		}
		mux := rpc.NewMux()
		mux.Register(wire.KindPingReq, func(_ context.Context, m wire.Msg) (wire.Msg, error) {
			return &wire.PingResp{Nonce: m.(*wire.PingReq).Nonce}, nil
		})
		srv := rpc.Serve(ln, clock, mux)
		defer srv.Close()

		cl := rpc.NewClient(net.Host("client"), clock, rpc.ClientOptions{})
		defer cl.Close()
		start := clock.Now()
		resp, err := cl.Call(context.Background(), "server:echo", &wire.PingReq{Nonce: 3})
		if err != nil {
			t.Error(err)
			return
		}
		if resp.(*wire.PingResp).Nonce != 3 {
			t.Errorf("nonce = %d", resp.(*wire.PingResp).Nonce)
		}
		// Dial RTT (0.2 ms) + request and response latency (0.2 ms) plus
		// tiny serialization time.
		el := clock.Now() - start
		if el < 380*time.Microsecond || el > 600*time.Microsecond {
			t.Errorf("call took %v, want ~400µs", el)
		}
	})
}

func TestSimnetIsTransportNetwork(t *testing.T) {
	var _ transport.Network = (*Host)(nil)
}

func TestNetCloseFailsBlockedWriters(t *testing.T) {
	runSim(t, Config{}, func(clock *vclock.Virtual, net *Net) {
		a, b := net.Host("a"), net.Host("b")
		ln, _ := b.Listen("svc")
		clock.Go(func() { ln.Accept() })
		c, _ := a.Dial(context.Background(), "b:svc")
		werr := clock.NewEvent()
		clock.Go(func() {
			_, err := c.Write(make([]byte, 8<<20)) // ~70 ms to drain
			werr.Fire(err)
		})
		clock.Sleep(time.Millisecond)
		net.Close()
		v, _ := werr.Wait(nil)
		if v == nil {
			t.Error("blocked write should fail on Net.Close")
		}
	})
}
