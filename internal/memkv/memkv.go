// Package memkv is the in-memory engine behind both dumb servers of
// immutably-named bytes — pagestore.Mem under a data provider, dht.Mem
// under a metadata provider — matching the paper's RAM-resident
// prototype: pairs in sharded maps, gone with the process.
package memkv

import "sync"

// shards spreads lookups over independent locks so concurrent clients
// (the paper's central scenario) do not serialize on one mutex.
const shards = 64

// Map holds immutable values under byte-string keys. It is safe for
// concurrent use; a stored value is never written again, so what Put
// and Get return may be read without a lock, and never modified.
type Map struct {
	shards [shards]shard
}

// shard is one lock's worth of pairs. An operation holds at most one
// shard lock at a time.
//
//blobseer:lockorder shard.mu
type shard struct {
	mu    sync.RWMutex
	m     map[string][]byte
	bytes uint64
}

// New returns an empty map.
func New() *Map {
	m := &Map{}
	for i := range m.shards {
		m.shards[i].m = make(map[string][]byte)
	}
	return m
}

// shard picks key's lock by FNV-1a. Lookups index the map through
// string(key) in place, which allocates nothing.
func (m *Map) shard(key []byte) *shard {
	h := uint(2166136261)
	for _, b := range key {
		h = (h ^ uint(b)) * 16777619
	}
	return &m.shards[h%shards]
}

// Put stores a copy of value under key — a sub-slice would pin, and
// change with, whatever buffer the caller decoded value from — unless
// key is already stored: then nothing changes and Put returns the
// stored value. The check and the insert are under one shard lock, so
// of two concurrent puts of one key exactly one inserts.
func (m *Map) Put(key, value []byte) (old []byte, dup bool) {
	s := m.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, dup = s.m[string(key)]; dup {
		return old, true
	}
	s.m[string(key)] = append([]byte(nil), value...)
	s.bytes += uint64(len(value))
	return nil, false
}

// Get returns the value stored under key: the stored bytes themselves,
// serving from memory copies nothing.
func (m *Map) Get(key []byte) ([]byte, bool) {
	s := m.shard(key)
	s.mu.RLock()
	value, ok := s.m[string(key)]
	s.mu.RUnlock()
	return value, ok
}

// Delete removes key and reports whether it was stored.
func (m *Map) Delete(key []byte) bool {
	s := m.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	old, ok := s.m[string(key)]
	if ok {
		delete(s.m, string(key))
		s.bytes -= uint64(len(old))
	}
	return ok
}

// Stats returns the number of keys and their values' total size.
func (m *Map) Stats() (keys, bytes uint64) {
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.RLock()
		keys += uint64(len(s.m))
		bytes += s.bytes
		s.mu.RUnlock()
	}
	return keys, bytes
}
