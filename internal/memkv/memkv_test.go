package memkv

import (
	"bytes"
	"testing"

	"blobseer/internal/obs"
)

func TestPutKeepsFirstValueAndOwnsItsCopy(t *testing.T) {
	m := New()
	frame := []byte("key|first value|tail")
	key, value := frame[:3], frame[4:15]
	if old, dup := m.Put(key, value); dup || old != nil {
		t.Fatalf("first put: old %q dup %v", old, dup)
	}
	for i := range frame {
		frame[i] = 0xdb // the caller recycles its buffer
	}
	got, ok := m.Get([]byte("key"))
	if !ok || string(got) != "first value" {
		t.Fatalf("stored %q found %v, want a copy of the first value", got, ok)
	}
	if old, dup := m.Put([]byte("key"), []byte("second")); !dup || !bytes.Equal(old, got) {
		t.Fatalf("re-put: old %q dup %v, want the stored value", old, dup)
	}
	stats := func() (keys, size float64) { return obs.Value(m, "store_keys"), obs.Value(m, "store_value_bytes") }
	if keys, size := stats(); keys != 1 || size != float64(len(got)) {
		t.Fatalf("stats %v keys %v bytes", keys, size)
	}
	if !m.Delete([]byte("key")) || m.Delete([]byte("key")) {
		t.Fatal("delete must report a stored key once")
	}
	if keys, size := stats(); keys != 0 || size != 0 {
		t.Fatalf("stats after delete: %v keys %v bytes", keys, size)
	}
}

// TestLookupsDoNotAllocate: a byte-slice key reaches the string-keyed
// shards without becoming a string on the heap, hit or miss.
func TestLookupsDoNotAllocate(t *testing.T) {
	m := New()
	hit, miss := []byte("a sixteen-byte id"), []byte("never stored")
	m.Put(hit, []byte("v"))
	if n := testing.AllocsPerRun(100, func() {
		m.Get(hit)
		m.Get(miss)
		m.Delete(miss)
		m.Put(hit, nil)
	}); n != 0 {
		t.Fatalf("%v allocations per round of lookups, want 0", n)
	}
}
