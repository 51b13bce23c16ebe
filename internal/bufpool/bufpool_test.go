package bufpool

import "testing"

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

// TestPoisonReleased flips a one-way switch; no other test of the
// package reads a buffer it has released, so the order does not matter.
func TestPoisonReleased(t *testing.T) {
	PoisonReleased()
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
