package bufpool

import (
	"runtime"
	"testing"
)

func TestFramePoolClasses(t *testing.T) {
	for _, n := range []int{0, 1, 1 << minShift, 1<<minShift + 1, 65536 + 33, MaxPooled} {
		p := Get(n)
		if c := cap(*p); len(*p) != n || c < n || c&(c-1) != 0 || c < 1<<minShift {
			t.Fatalf("Get(%d): len %d cap %d, want a power-of-two class holding it", n, len(*p), cap(*p))
		}
		Put(p)
	}
	// Above the top class: exact, and never pooled.
	big := Get(MaxPooled + 1)
	if cap(*big) != MaxPooled+1 {
		t.Fatalf("oversize buffer got cap %d", cap(*big))
	}
	Put(big)
	// A buffer that grew past its class is filed under the class it
	// still covers, so whoever gets it next has the room it asked for.
	grown := append(make([]byte, 0, 5000), 1)
	Put(&grown)
	for i := 0; i < 64; i++ {
		p := Get(MaxPooled)
		if cap(*p) != MaxPooled {
			t.Fatalf("an oversize buffer came back from the pool: cap %d", cap(*p))
		}
		q := Get(4096)
		if cap(*q) < 4096 {
			t.Fatalf("class 4096 handed out cap %d", cap(*q))
		}
	}
}

// TestBytesRoundTrip: the bare-slice flavour draws on the same classes
// as Get/Put, and a warm GetBytes+PutBytes pair allocates nothing — the
// buffer's pointer shell is recycled with it.
func TestBytesRoundTrip(t *testing.T) {
	b := GetBytes(70000)
	if len(b) != 70000 || cap(b) != 1<<17 {
		t.Fatalf("GetBytes(70000): len %d cap %d", len(b), cap(b))
	}
	PutBytes(b)
	PutBytes(nil)                // dropped: below the smallest class
	PutBytes(make([]byte, 5000)) // not from the pool: filed by capacity
	if raceEnabled {
		return // the race detector makes sync.Pool drop a quarter of what it is given
	}
	if got := testing.AllocsPerRun(200, func() { PutBytes(GetBytes(64 << 10)) }); got != 0 {
		t.Fatalf("a warm GetBytes+PutBytes pair makes %v allocations, want 0", got)
	}
}

// TestPoisonReleased: under the poison mode a released buffer reads
// the poison byte throughout.
func TestPoisonReleased(t *testing.T) {
	defer PoisonReleased(PoisonReleased(true))
	b := GetBytes(3000)
	for i := range b {
		b[i] = 1
	}
	PutBytes(b)
	for i, c := range b[:cap(b)] {
		if c != 0xDB {
			t.Fatalf("byte %d of a released buffer reads %#x, want the poison", i, c)
		}
	}
}

// TestMissesCountFreshBuffers: a Get the pool cannot answer counts one
// miss of its class's bytes, a Get it answers counts none, and an
// oversize Get is no miss: it is never pooled.
func TestMissesCountFreshBuffers(t *testing.T) {
	const n, class = 300 << 10, 512 << 10
	count, bytes := Misses()
	Put(Get(MaxPooled + 1))
	if c, b := Misses(); c != count || b != bytes {
		t.Fatalf("an oversize Get moved the misses from %d/%d to %d/%d", count, bytes, c, b)
	}
	// Take buffers of one class until the pool runs dry (an earlier run
	// of the test may have left some there).
	var held []*[]byte
	defer func() {
		for _, p := range held {
			Put(p)
		}
	}()
	for range 1000 {
		count, bytes := Misses()
		held = append(held, Get(n))
		c, b := Misses()
		if c == count {
			continue
		}
		if c != count+1 || b != bytes+class {
			t.Fatalf("a cold Get(%d) moved the misses from %d/%d to %d/%d, want one of %d bytes", n, count, bytes, c, b, class)
		}
		return
	}
	t.Fatal("1000 Gets without a miss")
}

// TestReserveOutlivesCollections: a released buffer is still there to
// take after collections, which drain a sync.Pool within two cycles; and
// the reserves keep what their bounds say.
func TestReserveOutlivesCollections(t *testing.T) {
	const n = 100 << 10
	held := []*[]byte{Get(n), Get(n)}
	for _, p := range held {
		Put(p)
	}
	runtime.GC()
	runtime.GC()
	count, _ := Misses()
	q, r := Get(n), Get(n)
	Put(q)
	Put(r)
	if c, _ := Misses(); c != count {
		t.Fatalf("2 Gets after two collections missed %d times, want 0", c-count)
	}
	pinned := 0
	for i := range classes {
		pinned += classes[i].depth << (i + minShift)
	}
	if pinned > 6<<20 || classes[0].depth != reserveDepth || classes[len(classes)-1].depth != 0 {
		t.Fatalf("the reserves pin %d bytes (1 KiB class %d deep, top class %d deep)",
			pinned, classes[0].depth, classes[len(classes)-1].depth)
	}
}
