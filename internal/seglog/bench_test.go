package seglog

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"blobseer/internal/wire"
)

// benchValue is one 64 KiB page.
var benchValue = func() []byte {
	v := make([]byte, 64<<10)
	for i := range v {
		v[i] = byte(i * 7)
	}
	return v
}()

// BenchmarkKVPut appends 64 KiB values under fresh keys, unsynced (the
// benchmark's flush policy): serial and group-committed, from 1 and
// from 8 appenders. The fixed-key framing is the page store's.
func BenchmarkKVPut(b *testing.B) {
	ly := kvFramings[0].ly
	for _, group := range []bool{false, true} {
		for _, appenders := range []int{1, 8} {
			mode := "serial"
			if group {
				mode = "group"
			}
			b.Run(fmt.Sprintf("%s/%dappenders", mode, appenders), func(b *testing.B) {
				s, err := OpenKV(filepath.Join(b.TempDir(), "kv.log"), ly, KVOptions{GroupCommit: group})
				if err != nil {
					b.Fatal(err)
				}
				defer s.Close()
				b.ReportAllocs()
				b.SetBytes(int64(len(benchValue)))
				b.ResetTimer()
				var wg sync.WaitGroup
				for w := 0; w < appenders; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						for i := w; i < b.N; i += appenders {
							if err := s.Put(tkey(ly, i), benchValue); err != nil {
								b.Error(err)
								return
							}
						}
					}(w)
				}
				wg.Wait()
			})
		}
	}
}

// BenchmarkKVGet reads whole 64 KiB values back from a 256-key store.
func BenchmarkKVGet(b *testing.B) {
	ly := kvFramings[0].ly
	s, err := OpenKV(filepath.Join(b.TempDir(), "kv.log"), ly, KVOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	const keys = 256
	for i := 0; i < keys; i++ {
		if err := s.Put(tkey(ly, i), benchValue); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(benchValue)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := s.Get(tkey(ly, i%keys), 0, wire.WholePage)
		if err != nil || len(v) != len(benchValue) {
			b.Fatal(err)
		}
	}
}
