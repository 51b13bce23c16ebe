package seglog

import (
	"fmt"
	"os"
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
// benchmark's flush policy), from 1 and from 8 appenders. The fixed-key
// framing is the page store's.
func BenchmarkKVPut(b *testing.B) {
	ly := kvFramings[0].ly
	for _, appenders := range []int{1, 8} {
		b.Run(fmt.Sprintf("%dappenders", appenders), func(b *testing.B) {
			s, err := OpenKV(filepath.Join(b.TempDir(), "kv.log"), ly, KVOptions{})
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

// BenchmarkKVGet reads whole 64 KiB values back from a 256-key store:
// Get into memory of its own each time, GetAppend into one buffer the
// caller keeps.
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
	buf := make([]byte, 0, len(benchValue))
	for _, bc := range []struct {
		name string
		get  func(key string) ([]byte, error)
	}{
		{"Get", func(key string) ([]byte, error) { return s.Get(key, 0, wire.WholePage) }},
		{"GetAppend", func(key string) ([]byte, error) { return s.GetAppend(buf[:0], key, 0, wire.WholePage) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(benchValue)))
			for i := 0; i < b.N; i++ {
				v, err := bc.get(tkey(ly, i%keys))
				if err != nil || len(v) != len(benchValue) {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchNode is one metadata tree node's worth of value.
var benchNode = benchValue[:75]

// benchShapes are the two record shapes in production: 64 KiB pages
// under fixed keys, 75-byte tree nodes under length-prefixed ones.
var benchShapes = []struct {
	name    string
	ly      *KVLayout
	value   []byte
	records int
}{
	{"fixed16/64KiB", kvFramings[0].ly, benchValue, 128},
	{"varkey/75B", kvFramings[1].ly, benchNode, 16384},
}

// BenchmarkKVCompact rewrites one sealed segment of which every other
// record was deleted — Compact: both passes of the rewrite, the tmp
// fsync and rename, and the covering snapshot. The bytes counted are
// the bytes kept. Building the segment is outside the timer.
func BenchmarkKVCompact(b *testing.B) {
	for _, sh := range benchShapes {
		b.Run(sh.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(sh.records/2) * sh.ly.framedSize(len(tkey(sh.ly, 0)), uint32(len(sh.value))))
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dir := b.TempDir()
				s, err := OpenKV(filepath.Join(dir, "kv.log"), sh.ly, KVOptions{})
				if err != nil {
					b.Fatal(err)
				}
				for k := 0; k < sh.records; k++ {
					if err := s.Put(tkey(sh.ly, k), sh.value); err != nil {
						b.Fatal(err)
					}
				}
				s.wmu.Lock()
				err = s.rollLocked()
				s.wmu.Unlock()
				for k := 0; k < sh.records && err == nil; k += 2 {
					err = s.Delete(tkey(sh.ly, k))
				}
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := s.Compact(); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if st := s.Stats(); st.Compactions != 1 {
					b.Fatalf("%d rewrites, want 1", st.Compactions)
				}
				s.Close()
				os.RemoveAll(dir)
				b.StartTimer()
			}
		})
	}
}

// BenchmarkKVReopenRescan opens a store that has no index snapshot, so
// recovery replays every record of its one segment through Format.Scan.
func BenchmarkKVReopenRescan(b *testing.B) {
	for _, sh := range benchShapes {
		b.Run(sh.name, func(b *testing.B) {
			path := filepath.Join(b.TempDir(), "kv.log")
			s, err := OpenKV(path, sh.ly, KVOptions{})
			if err != nil {
				b.Fatal(err)
			}
			for k := 0; k < sh.records; k++ {
				if err := s.Put(tkey(sh.ly, k), sh.value); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(s.Stats().LogBytes)
			s.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := OpenKV(path, sh.ly, KVOptions{})
				if err != nil {
					b.Fatal(err)
				}
				if got := s.RecoveryStats().RecordsReplayed; got != sh.records {
					b.Fatalf("replayed %d records, want %d", got, sh.records)
				}
				s.Close()
			}
		})
	}
}
