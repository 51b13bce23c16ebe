package simnet

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"blobseer/internal/transport"
	"blobseer/internal/vclock"
)

// echoServer serves length-prefixed messages back to their sender on
// every connection ln accepts, until the connection fails.
func echoServer(clock *vclock.Virtual, ln transport.Listener) {
	clock.Go(func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			clock.Go(func() {
				defer c.Close()
				for {
					var hdr [4]byte
					if _, err := io.ReadFull(c, hdr[:]); err != nil {
						return
					}
					msg := make([]byte, binary.LittleEndian.Uint32(hdr[:]))
					if _, err := io.ReadFull(c, msg); err != nil {
						return
					}
					if _, err := c.Write(hdr[:]); err != nil {
						return
					}
					if _, err := c.Write(msg); err != nil {
						return
					}
				}
			})
		}
	})
}

// faultyExchanges runs a fixed workload over a network with the given
// fault plan: four client nodes each send 40 messages of assorted sizes
// to one echo server, redialling after every refused dial or reset
// connection, and check every echo. It returns the trace: each client's
// outcomes with their virtual times, then every fault injected.
func faultyExchanges(t *testing.T, plan FaultPlan) string {
	t.Helper()
	var trace strings.Builder
	runSim(t, Config{Faults: plan}, func(clock *vclock.Virtual, net *Net) {
		ln, err := net.Host("srv").Listen("echo")
		if err != nil {
			t.Error(err)
			return
		}
		defer ln.Close()
		echoServer(clock, ln)

		const clients, msgs = 4, 40
		logs := make([][]string, clients)
		done := make([]vclock.Event, clients)
		for i := range done {
			done[i] = clock.NewEvent()
			clock.Go(func() {
				defer done[i].Fire(nil)
				host := net.Host(fmt.Sprintf("c%d", i))
				note := func(format string, args ...any) {
					logs[i] = append(logs[i], fmt.Sprintf("%v c%d "+format, append([]any{clock.Now(), i}, args...)...))
				}
				var c transport.Conn
				for m := 0; m < msgs; {
					if c == nil {
						var err error
						if c, err = host.Dial(context.Background(), "srv:echo"); err != nil {
							note("dial: %v", err)
							clock.Sleep(time.Millisecond)
							continue
						}
					}
					msg := bytes.Repeat([]byte{byte(m)}, 1+(m*997)%20000)
					out := binary.LittleEndian.AppendUint32(nil, uint32(len(msg)))
					echo := make([]byte, len(out)+len(msg))
					_, err := c.Write(append(out, msg...))
					if err == nil {
						_, err = io.ReadFull(c, echo)
					}
					if err != nil {
						note("msg %d: %v", m, err)
						c.Close()
						c = nil
						continue
					}
					if !bytes.Equal(echo[4:], msg) {
						t.Errorf("client %d msg %d: echo differs", i, m)
					}
					note("msg %d ok", m)
					m++
				}
				c.Close()
			})
		}
		for _, ev := range done {
			ev.Wait(nil)
		}
		for _, l := range logs {
			for _, line := range l {
				fmt.Fprintln(&trace, line)
			}
		}
		for _, f := range net.Injected() {
			fmt.Fprintf(&trace, "%+v\n", f)
		}
	})
	return trace.String()
}

// TestFaultPlanReplaysBitForBit runs one seeded plan twice: both runs
// must inject the same faults and see the same outcomes at the same
// virtual times. A different seed must give a different run.
func TestFaultPlanReplaysBitForBit(t *testing.T) {
	plan := FaultPlan{
		Seed:  42,
		Delay: 0.3, MaxDelay: 3 * time.Millisecond,
		Reset:     0.04,
		Partition: 0.02, PartitionFor: 2 * time.Millisecond,
		Refuse: 0.2,
	}
	first := faultyExchanges(t, plan)
	if second := faultyExchanges(t, plan); second != first {
		a, b := strings.Split(first, "\n"), strings.Split(second, "\n")
		i := 0
		for i < min(len(a), len(b)) && a[i] == b[i] {
			i++
		}
		t.Fatalf("seed %d replayed differently from trace line %d:\n%s\nvs\n%s",
			plan.Seed, i, strings.Join(a[i:min(i+5, len(a))], "\n"), strings.Join(b[i:min(i+5, len(b))], "\n"))
	}
	for _, kind := range []string{"Kind:delay", "Kind:reset", "Kind:partition", "Kind:refuse"} {
		if !strings.Contains(first, kind) {
			t.Errorf("no %s fault in the run:\n%s", kind, first)
		}
	}
	plan.Seed++
	if other := faultyExchanges(t, plan); other == first {
		t.Fatal("seeds 42 and 43 gave identical runs")
	}
}

// TestEmptyPlanChangesNothing pins "no behaviour change without faults":
// a plan with a seed and no probabilities times a transfer exactly as
// no plan does, and injects nothing.
func TestEmptyPlanChangesNothing(t *testing.T) {
	var base, seeded time.Duration
	runSim(t, Config{}, func(clock *vclock.Virtual, net *Net) {
		base = transfer(t, clock, net.Host("a"), net.Host("b"), 4<<20)
	})
	runSim(t, Config{Faults: FaultPlan{Seed: 9, MaxDelay: time.Second}}, func(clock *vclock.Virtual, net *Net) {
		seeded = transfer(t, clock, net.Host("a"), net.Host("b"), 4<<20)
		if f := net.Injected(); len(f) != 0 {
			t.Errorf("an empty plan injected %v", f)
		}
	})
	if base != seeded {
		t.Fatalf("transfer took %v with an empty plan, %v without", seeded, base)
	}
}

// TestPartitionResetsAndRefuses cuts a link with an established
// connection: both of its ends fail with ErrConnReset, a dial across the
// cut is refused, and after Heal a new connection carries bytes again.
func TestPartitionResetsAndRefuses(t *testing.T) {
	runSim(t, Config{}, func(clock *vclock.Virtual, net *Net) {
		ln, _ := net.Host("b").Listen("svc")
		defer ln.Close()
		accepted := clock.NewEvent()
		clock.Go(func() {
			c, err := ln.Accept()
			if err != nil {
				accepted.Fire(err)
				return
			}
			_, err = c.Read(make([]byte, 1))
			accepted.Fire(err)
		})
		a := net.Host("a")
		c, err := a.Dial(context.Background(), "b:svc")
		if err != nil {
			t.Error(err)
			return
		}
		clock.Sleep(time.Millisecond)
		net.Partition("a", "b")
		if v, _ := accepted.Wait(nil); !errors.Is(v.(error), ErrConnReset) {
			t.Errorf("peer read across the cut = %v, want ErrConnReset", v)
		}
		if _, err := c.Write([]byte{1}); !errors.Is(err, ErrConnReset) {
			t.Errorf("write across the cut = %v, want ErrConnReset", err)
		}
		if _, err := a.Dial(context.Background(), "b:svc"); !errors.Is(err, ErrRefused) {
			t.Errorf("dial across the cut = %v, want ErrRefused", err)
		}
		if _, err := net.Host("c").Dial(context.Background(), "b:svc"); err != nil {
			t.Errorf("dial from an uncut node: %v", err)
		}
		net.Heal("b", "a")
		echoServer(clock, ln)
		c, err = a.Dial(context.Background(), "b:svc")
		if err != nil {
			t.Errorf("dial after Heal: %v", err)
			return
		}
		defer c.Close()
		if _, err := c.Write([]byte{1, 0, 0, 0, 7}); err != nil {
			t.Error(err)
		}
		echo := make([]byte, 5)
		if _, err := io.ReadFull(c, echo); err != nil || echo[4] != 7 {
			t.Errorf("echo after Heal = %v, %v", echo, err)
		}
		kinds := ""
		for _, f := range net.Injected() {
			kinds += f.Kind + " "
		}
		if kinds != "partition heal " {
			t.Errorf("injected %q, want the scripted partition and heal", kinds)
		}
	})
}
