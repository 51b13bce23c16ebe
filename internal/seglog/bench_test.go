package seglog

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
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
// benchmark's flush policy), from 1 and from 8 appenders, in the page
// store's layout.
func BenchmarkKVPut(b *testing.B) {
	ly := kvLayouts[0].ly
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
	ly := kvLayouts[0].ly
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
// under 16-byte keys, 75-byte tree nodes under 33-byte ones.
var benchShapes = []struct {
	name    string
	ly      *KVLayout
	value   []byte
	records int
}{
	{"page16/64KiB", kvLayouts[0].ly, benchValue, 128},
	{"node33/75B", kvLayouts[1].ly, benchNode, 16384},
}

// BenchmarkKVCompact rewrites one sealed segment of which every other
// record was deleted — Compact: both passes of the rewrite, the tmp
// fsync and rename, and the covering snapshot. The bytes counted are
// the bytes kept. Building the segment is outside the timer.
func BenchmarkKVCompact(b *testing.B) {
	for _, sh := range benchShapes {
		b.Run(sh.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(sh.records/2) * sh.ly.framedSize(uint32(len(sh.value))))
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
				if st := stats(s); st.Compactions != 1 {
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
// recovery replays every record of its one segment through scanFrames.
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
			b.SetBytes(stats(s).LogBytes)
			s.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := OpenKV(path, sh.ly, KVOptions{})
				if err != nil {
					b.Fatal(err)
				}
				if got := s.recStats.RecordsReplayed; got != sh.records {
					b.Fatalf("replayed %d records, want %d", got, sh.records)
				}
				s.Close()
			}
		})
	}
}

// BenchmarkKVSnapshot is one Snapshot of a store of 10^5 keys, 75-byte
// values under either layout, after 4 096 records were logged since
// the last one: 2 048 puts of fresh keys and 2 048 deletes of the
// oldest, outside the timer. The timed part is the seal, the fold — the
// previous snapshot read back and decoded, the newly sealed segment read
// through the CRC-checked scan — and the unsynced publish. bytes_read/op
// is what the fold read: the previous snapshot file and the segments it
// did not cover. heap_at_rest_B/key is the live heap after the last
// snapshot and two collections, over the keys held.
func BenchmarkKVSnapshot(b *testing.B) {
	const keys, logged, batch = 100_000, 4096, 1000
	for _, sh := range benchShapes {
		b.Run(strings.Split(sh.name, "/")[0], func(b *testing.B) {
			s, err := OpenKV(filepath.Join(b.TempDir(), "kv.log"), sh.ly, KVOptions{})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			putKeys(b, s, 0, keys, batch)
			if err := s.Snapshot(); err != nil {
				b.Fatal(err)
			}
			var read int64
			b.ReportAllocs()
			b.ResetTimer()
			for i, next := 0, keys; i < b.N; i, next = i+1, next+logged/2 {
				b.StopTimer()
				putKeys(b, s, next, next+logged/2, batch)
				doomed := make([]int, logged/2)
				for j := range doomed {
					doomed[j] = next - keys + j
				}
				if _, err := s.DeleteBatch(bkeys(sh.ly, doomed...)); err != nil {
					b.Fatal(err)
				}
				read += foldInput(b, s)
				b.StartTimer()
				if err := s.Snapshot(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(read)/float64(b.N), "bytes_read/op")
			b.ReportMetric(float64(heapAtRest())/keys, "heap_at_rest_B/key")
			runtime.KeepAlive(s)
		})
	}
}

// foldInput is what the next snapshot's fold reads of a store whose last
// snapshot left every record but the active segment's covered: the
// snapshot file and that segment.
func foldInput(b *testing.B, s *KV) int64 {
	info, err := os.Stat(SnapshotPath(s.base))
	if err != nil {
		b.Fatal(err)
	}
	return info.Size() + s.active.size.Load()
}
