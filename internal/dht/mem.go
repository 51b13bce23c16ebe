package dht

import (
	"bytes"
	"sync"
)

// Mem is the in-memory engine, matching the paper's RAM-resident
// metadata providers: pairs in sharded maps, gone with the process.
type Mem struct {
	shards [kvShards]memShard
}

// memShard is one lock's worth of pairs. An operation holds at most one
// shard lock at a time.
//
//blobseer:lockorder memShard.mu
type memShard struct {
	mu    sync.RWMutex
	m     map[string][]byte
	bytes uint64
}

func newMem() *Mem {
	e := &Mem{}
	for i := range e.shards {
		e.shards[i].m = make(map[string][]byte)
	}
	return e
}

// putBatch implements engine. The dup/divergence check and the insert
// of an exact-size copy (a sub-slice would pin the request's frame) are
// under one shard lock, which is what makes the immutability rule hold
// against concurrent puts and repeats.
func (e *Mem) putBatch(keys, values [][]byte) error {
	for i, key := range keys {
		s := &e.shards[shardOf(key)]
		s.mu.Lock()
		old, dup := s.m[string(key)]
		switch {
		case !dup:
			s.m[string(key)] = append([]byte(nil), values[i]...)
			s.bytes += uint64(len(values[i]))
		case !bytes.Equal(old, values[i]):
			s.mu.Unlock()
			return divergent(key, len(old), len(values[i]))
		}
		s.mu.Unlock()
	}
	return nil
}

// getBatch implements engine. The values alias the stored pairs —
// serving from memory copies nothing — so nothing is lent.
func (e *Mem) getBatch(keys [][]byte, found []bool, values [][]byte) ([]byte, error) {
	for i, key := range keys {
		s := &e.shards[shardOf(key)]
		s.mu.RLock()
		values[i], found[i] = s.m[string(key)]
		s.mu.RUnlock()
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
		s := &e.shards[shardOf(key)]
		s.mu.Lock()
		if old, ok := s.m[string(key)]; ok {
			delete(s.m, string(key))
			s.bytes -= uint64(len(old))
			deleted++
		}
		s.mu.Unlock()
	}
	return deleted, nil
}

// stats implements engine.
func (e *Mem) stats() (keys, bytes uint64) {
	for i := range e.shards {
		s := &e.shards[i]
		s.mu.RLock()
		keys += uint64(len(s.m))
		bytes += s.bytes
		s.mu.RUnlock()
	}
	return keys, bytes
}

// close implements engine.
func (*Mem) close() error { return nil }
