package seglog

import (
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// indexKeys is how many keys the index measurements store.
const indexKeys = 1 << 17

// openIndexed opens an on-disk store of ly's layout, puts indexKeys keys
// into it with 75-byte values — an index entry does not depend on its
// value's size, so both shapes store tree nodes — and returns it with
// the heap its index holds per key at rest: the live heap after the
// puts less the live heap of the store opened empty, over the keys.
func openIndexed(tb testing.TB, ly *KVLayout) (*KV, float64) {
	s, err := OpenKV(nil, filepath.Join(tb.TempDir(), "kv.log"), ly, KVOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close() })
	before := heapAtRest()
	putKeys(tb, s, 0, indexKeys, 1000)
	after := heapAtRest()
	runtime.KeepAlive(s)
	return s, (float64(after) - float64(before)) / indexKeys
}

// BenchmarkKVIndex reports, for a store of 2^17 keys of either bench
// shape, the heap its index holds per key at rest (B/key, as in
// TestKVIndexHeapPerKey) and times a checked lookup of a stored key
// (Len). Building the store is outside the timer.
func BenchmarkKVIndex(b *testing.B) {
	for _, sh := range benchShapes {
		b.Run(strings.Split(sh.name, "/")[0], func(b *testing.B) {
			s, perKey := openIndexed(b, sh.ly)
			keys := make([]string, 1024)
			for i := range keys {
				keys[i] = tkey(sh.ly, i*(indexKeys/len(keys)))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := s.Len(keys[i%len(keys)]); !ok {
					b.Fatal("a stored key is missing")
				}
			}
			b.StopTimer()
			b.ReportMetric(perKey, "B/key")
		})
	}
}
