package vclock

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestVirtualSleepAdvancesInstantly(t *testing.T) {
	v := NewVirtual(0)
	wallStart := time.Now()
	var end time.Duration
	err := v.Run(func() {
		v.Sleep(24 * time.Hour)
		end = v.Now()
	})
	if err != nil {
		t.Fatal(err)
	}
	if end != 24*time.Hour {
		t.Fatalf("Now after sleep = %v, want 24h", end)
	}
	if wall := time.Since(wallStart); wall > 5*time.Second {
		t.Fatalf("virtual day took %v of wall time", wall)
	}
}

func TestVirtualSleepOrdering(t *testing.T) {
	v := NewVirtual(0)
	var mu sync.Mutex
	var order []int
	err := v.Run(func() {
		// Each sleeper fires its own event; the root must block only on
		// clock-visible primitives (a sync.WaitGroup here would wedge the
		// simulation, since the clock could not see the root as blocked).
		durs := []time.Duration{30 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond}
		ids := []int{3, 1, 2}
		evs := make([]Event, len(durs))
		for i := range durs {
			i := i
			evs[i] = v.NewEvent()
			v.Go(func() {
				v.Sleep(durs[i])
				mu.Lock()
				order = append(order, ids[i])
				mu.Unlock()
				evs[i].Fire(nil)
			})
		}
		for _, ev := range evs {
			ev.Wait(nil)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("wake order = %v, want [1 2 3]", order)
	}
}

// TestVirtualSameInstantOneCascadeAtATime pins the order within one
// virtual instant: timers due together fire in (at, seq) order, each
// only once everything the one before it woke has blocked again, so the
// goroutines they wake never run side by side.
func TestVirtualSameInstantOneCascadeAtATime(t *testing.T) {
	v := NewVirtual(0)
	var mu sync.Mutex
	var order []int
	err := v.Run(func() {
		timers, done := make([]Event, 3), make([]Event, 3)
		for i := range timers {
			timers[i], done[i] = v.NewEvent(), v.NewEvent()
			v.FireAt(timers[i], time.Second) // one instant, seq in index order
			v.Go(func() {
				if _, err := timers[i].Wait(nil); err != nil {
					return
				}
				for range 50 { // runnable all along: a rival woken now would interleave
					mu.Lock()
					order = append(order, i)
					mu.Unlock()
					runtime.Gosched()
				}
				done[i].Fire(nil)
			})
		}
		for _, ev := range done {
			ev.Wait(nil)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for j := 1; j < len(order); j++ {
		if order[j] < order[j-1] || order[j] > order[j-1]+1 {
			t.Fatalf("cascades interleaved or ran out of order: %v", order)
		}
	}
}

func TestVirtualEventHandoff(t *testing.T) {
	v := NewVirtual(0)
	err := v.Run(func() {
		ev := v.NewEvent()
		v.Go(func() {
			v.Sleep(time.Second)
			ev.Fire("payload")
		})
		got, err := ev.Wait(nil)
		if err != nil {
			t.Errorf("Wait: %v", err)
		}
		if got != "payload" {
			t.Errorf("payload = %v", got)
		}
		if v.Now() != time.Second {
			t.Errorf("Now = %v, want 1s", v.Now())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestVirtualFireBeforeWait(t *testing.T) {
	v := NewVirtual(0)
	err := v.Run(func() {
		ev := v.NewEvent()
		ev.Fire(42)
		got, err := ev.Wait(nil)
		if err != nil || got != 42 {
			t.Errorf("Wait = %v, %v", got, err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestVirtualDeadlockDetection(t *testing.T) {
	v := NewVirtual(0)
	err := v.Run(func() {
		ev := v.NewNamedEvent("never-fired")
		_, werr := ev.Wait(nil)
		if !errors.Is(werr, ErrDeadlock) {
			t.Errorf("Wait err = %v, want ErrDeadlock", werr)
		}
	})
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("Run err = %v, want ErrDeadlock", err)
	}
}

func TestVirtualHorizon(t *testing.T) {
	v := NewVirtual(time.Minute)
	err := v.Run(func() {
		v.Sleep(2 * time.Minute)
	})
	if !errors.Is(err, ErrHorizon) {
		t.Fatalf("Run err = %v, want ErrHorizon", err)
	}
}

func TestVirtualStoppedUnwindsServices(t *testing.T) {
	v := NewVirtual(0)
	var serviceSawStop atomic.Bool
	unwound := make(chan struct{})
	err := v.Run(func() {
		// A "service" that waits forever, like an accept loop.
		v.Go(func() {
			ev := v.NewNamedEvent("accept")
			_, werr := ev.Wait(nil)
			if errors.Is(werr, ErrStopped) {
				serviceSawStop.Store(true)
			}
			close(unwound)
		})
		v.Sleep(time.Second) // experiment body; returns while service blocked
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-unwound:
	case <-time.After(5 * time.Second):
		t.Fatal("service goroutine did not unwind")
	}
	if !serviceSawStop.Load() {
		t.Fatal("service did not observe ErrStopped")
	}
}

func TestVirtualManyGoroutines(t *testing.T) {
	v := NewVirtual(0)
	const n = 500
	var total atomic.Int64
	err := v.Run(func() {
		evs := make([]Event, n)
		for i := 0; i < n; i++ {
			i := i
			evs[i] = v.NewEvent()
			v.Go(func() {
				v.Sleep(time.Duration(i%17+1) * time.Millisecond)
				total.Add(1)
				evs[i].Fire(nil)
			})
		}
		for _, ev := range evs {
			ev.Wait(nil)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if total.Load() != n {
		t.Fatalf("completed %d of %d", total.Load(), n)
	}
	if got := v.Now(); got != 17*time.Millisecond {
		t.Fatalf("final time %v, want 17ms", got)
	}
}

func TestVirtualDoubleFirePanics(t *testing.T) {
	v := NewVirtual(0)
	v.Run(func() {
		ev := v.NewEvent()
		ev.Fire(nil)
		defer func() {
			if recover() == nil {
				t.Error("second Fire did not panic")
			}
		}()
		ev.Fire(nil)
	})
}

// TestVirtualLateFireAfterShutdownIsNoop: the horizon fails a parked
// waiter, and the goroutine that owns the event, itself unwinding, fires
// it late. That Fire is a no-op, not a double-Fire panic, and Run reports
// the horizon.
func TestVirtualLateFireAfterShutdownIsNoop(t *testing.T) {
	v := NewVirtual(time.Second)
	waitErr := make(chan error, 1)
	err := v.Run(func() {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("late Fire panicked: %v", r)
			}
		}()
		ev := v.NewEvent()
		v.Go(func() {
			_, err := ev.Wait(nil)
			waitErr <- err
		})
		if err := v.Sleep(time.Hour); !errors.Is(err, ErrHorizon) {
			t.Errorf("Sleep past the horizon: %v, want ErrHorizon", err)
		}
		ev.Fire(nil)
	})
	if !errors.Is(err, ErrHorizon) {
		t.Fatalf("Run err = %v, want ErrHorizon", err)
	}
	if err := <-waitErr; !errors.Is(err, ErrHorizon) {
		t.Fatalf("waiter got %v, want ErrHorizon", err)
	}
}

// TestSleeperStopWakesAtOnce: Stop cuts a sleep short without moving the
// virtual clock, the sleep's own timer is dropped when its instant comes,
// and every later Sleep returns at once.
func TestSleeperStopWakesAtOnce(t *testing.T) {
	v := NewVirtual(0)
	err := v.Run(func() {
		s := NewSleeper(v)
		done := v.NewEvent()
		v.Go(func() { done.Fire(s.Sleep(time.Hour)) })
		v.Sleep(time.Second) // the sleeper is parked
		s.Stop()
		if got, _ := done.Wait(nil); got != ErrStopped {
			t.Errorf("stopped Sleep = %v, want ErrStopped", got)
		}
		if err := s.Sleep(time.Hour); err != ErrStopped {
			t.Errorf("Sleep after Stop = %v, want ErrStopped", err)
		}
		if now := v.Now(); now != time.Second {
			t.Errorf("Now = %v after Stop, want 1s", now)
		}
		v.Sleep(2 * time.Hour) // past the dropped timer: nothing fires twice
	})
	if err != nil {
		t.Fatal(err)
	}

	r := NewReal()
	s := NewSleeper(r)
	go func() {
		time.Sleep(10 * time.Millisecond)
		s.Stop()
	}()
	start := time.Now()
	if err := s.Sleep(time.Hour); err != ErrStopped {
		t.Fatalf("real stopped Sleep = %v, want ErrStopped", err)
	}
	if took := time.Since(start); took > 10*time.Second {
		t.Fatalf("Stop took %v to wake a real sleep", took)
	}
	if err := NewSleeper(r).Sleep(time.Millisecond); err != nil {
		t.Fatalf("real Sleep = %v", err)
	}
}

func TestVirtualZeroSleepIsNoop(t *testing.T) {
	v := NewVirtual(0)
	err := v.Run(func() {
		v.Sleep(0)
		v.Sleep(-time.Second)
		if v.Now() != 0 {
			t.Errorf("Now = %v after zero sleeps", v.Now())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRealSchedulerBasics(t *testing.T) {
	r := NewReal()
	ev := r.NewEvent()
	r.Go(func() { ev.Fire("x") })
	got, err := ev.Wait(context.Background())
	if err != nil || got != "x" {
		t.Fatalf("Wait = %v, %v", got, err)
	}
	before := r.Now()
	r.Sleep(5 * time.Millisecond)
	if r.Now()-before < 4*time.Millisecond {
		t.Fatal("Real.Sleep returned too early")
	}
}

func TestRealEventCtxCancel(t *testing.T) {
	r := NewReal()
	ev := r.NewEvent()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ev.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
}

func TestVirtualFireAtOrdersWithSleep(t *testing.T) {
	v := NewVirtual(0)
	err := v.Run(func() {
		ev := v.NewEvent()
		v.FireAt(ev, 50*time.Millisecond)
		v.Sleep(10 * time.Millisecond)
		if v.Now() != 10*time.Millisecond {
			t.Errorf("mid Now = %v", v.Now())
		}
		ev.Wait(nil)
		if v.Now() != 50*time.Millisecond {
			t.Errorf("end Now = %v", v.Now())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
