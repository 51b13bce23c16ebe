package dht

import (
	"bytes"

	"blobseer/internal/memkv"
	"blobseer/internal/obs"
)

// Mem is the in-memory engine, matching the paper's RAM-resident
// metadata providers: pairs in a memkv.Map, gone with the process.
type Mem struct{ m *memkv.Map }

func newMem() *Mem { return &Mem{m: memkv.New()} }

// putBatch implements engine. The map checks for a stored pair and
// inserts under one shard lock, which is what makes the immutability
// rule hold against concurrent puts and repeats; the pair it found is
// immutable, so comparing against it needs no lock.
func (e *Mem) putBatch(keys, values [][]byte) error {
	for i, key := range keys {
		if old, dup := e.m.Put(key, values[i]); dup && !bytes.Equal(old, values[i]) {
			return divergent(key, len(old), len(values[i]))
		}
	}
	return nil
}

// getBatch implements engine. The values alias the stored pairs —
// serving from memory copies nothing — so nothing is lent.
func (e *Mem) getBatch(keys [][]byte, found []bool, values [][]byte) ([]byte, error) {
	for i, key := range keys {
		values[i], found[i] = e.m.Get(key)
	}
	return nil, nil
}

// release implements engine by doing nothing: what getBatch returned
// are the stored pairs themselves.
func (*Mem) release([]byte) {}

// deleteBatch implements engine.
func (e *Mem) deleteBatch(keys [][]byte) (uint64, error) {
	var deleted uint64
	for _, key := range keys {
		if e.m.Delete(key) {
			deleted++
		}
	}
	return deleted, nil
}

// Metrics implements engine: the map's series.
func (e *Mem) Metrics(s *obs.Sink) { e.m.Metrics(s) }

// close implements engine.
func (*Mem) close() error { return nil }
