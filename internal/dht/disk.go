package dht

import (
	"bytes"
	"errors"
	"sync"

	"blobseer/internal/bufpool"
	"blobseer/internal/rpc"
	"blobseer/internal/seglog"
	"blobseer/internal/transport"
	"blobseer/internal/vclock"
	"blobseer/internal/wire"
)

// Durable metadata nodes keep every pair in a seglog.KV and nowhere
// else, so the segment trees survive a restart of the whole cluster
// (extension — the paper's metadata lived in RAM and node volatility
// was future work) and a node's RAM and restart time do not grow with
// every tree node it was ever handed: a GET reads the pair from its log
// segment (the OS page cache is the only cache), a restart rebuilds the
// KV's index and reads no value. Layout, recovery, snapshots and
// compaction are the KV's (see internal/seglog/kv.go).
//
// Durability contract: a request is acknowledged after it is logged —
// all the records of one PUT, MULTI_PUT or DELETE in one batch, one
// write and at most one fsync — and the shard lock is not held across
// that commit. While a put is parked its pairs sit in the shard's
// in-flight table (see Disk), so a pair is readable before it is
// logged; a pair being deleted is readable iff logged, that is until
// its tombstone's batch applies. Nobody can observe either window. A
// tree node is reachable only from a root whose writer was
// acknowledged, and a writer is acknowledged only after every node
// under that root is logged; a key is deleted only once no retained
// root reaches it. A failed commit leaves nothing behind: its pairs
// leave the table and never entered the log. With Sync on, logged means
// on disk. With Sync off, acknowledged records in the active segment
// may be lost by a crash — but never by a clean shutdown and never in a
// way that prevents reopening, because the layout below seals segments
// with an fsync.

// metaLayout is the metadata log's instantiation of the KV: its file
// magics, uint32-length-prefixed keys, and an fsync of every segment
// (and the directory) at seal and at Close even with Sync off.
var metaLayout = &seglog.KVLayout{
	Format: seglog.Format{
		Name:      "dht",
		RecMagic:  0xD47A5EE5,
		SegMagic:  0xD47A5E60,
		SegFormat: 1,
		SnapMagic: 0xD47A55A9,
	},
	SealSync: true,
}

// LogOptions tunes a durable node's metadata log. The zero value is
// unsynced appends, 64 MB segments, no automatic snapshots or
// compaction. Appends always group-commit.
type LogOptions struct {
	// Sync forces records to disk before a put or delete is
	// acknowledged: one fsync per request, shared with whatever else
	// commits alongside. Slower, but a crash loses at most in-flight
	// pairs instead of the OS write-back window.
	Sync bool
	// SegmentBytes rolls the log into a fresh segment file once the
	// active one exceeds this many bytes (default 64 MB). Compaction
	// rewrites whole sealed segments, so smaller segments reclaim at a
	// finer grain for more files.
	SegmentBytes int64
	// SnapshotEvery, when positive, writes an index snapshot
	// automatically after that many appended records, bounding reopen
	// replay by the interval. Zero disables automatic snapshots.
	SnapshotEvery int
	// CompactRatio, when positive, makes the background compactor
	// rewrite any sealed segment whose live-byte ratio falls below this
	// threshold (0 < ratio < 1), dropping records of deleted pairs.
	// Zero disables automatic compaction; CompactLog remains available
	// on demand.
	CompactRatio float64
}

// ServeDurableNode starts a metadata provider whose pairs live in a
// segmented log rooted at path; a restart serves what the log holds.
func ServeDurableNode(ln transport.Listener, sched vclock.Scheduler, path string, opts LogOptions) (*Node, error) {
	log, err := seglog.OpenKV(path, metaLayout, seglog.KVOptions{
		Sync:          opts.Sync,
		SegmentBytes:  opts.SegmentBytes,
		SnapshotEvery: opts.SnapshotEvery,
		CompactRatio:  opts.CompactRatio,
	})
	if err != nil {
		return nil, err
	}
	n := newNode(log)
	n.srv = rpc.Serve(ln, sched, n.mux())
	return n, nil
}

// Disk is the durable engine: the pairs are the seglog.KV's, and the
// one piece of RAM state beside its index is a per-shard in-flight
// table — the pairs of requests that are enqueued but not yet
// acknowledged, empty at rest. It is what the contract above needs
// while a commit is parked: the pair is readable, a divergent re-put is
// refused at once, and a key whose tombstone is pending is not deleted
// (or counted) twice.
type Disk struct {
	kv     *seglog.KV
	shards [kvShards]kvShard
}

// kvShard is one lock's worth of the in-flight table. An operation
// holds at most one shard lock at a time and never across a wait on the
// log. The log's own locks nest inside it: its writer mutex and index
// stripes (kvStripe.mu) on every enqueue and index lookup, and on a
// re-put's divergence read also the segment lock (kvSegment.mu, then
// kvStripe.mu) GetAppendBytes holds across its pread.
//
//blobseer:lockorder kvShard.mu
type kvShard struct {
	mu       sync.RWMutex
	inflight map[string]inflight
}

// inflight is what the requests now parked on the log have enqueued for
// one key. The entry goes when the last of them leaves.
type inflight struct {
	// value is the node's own copy of the pair's bytes (the request's
	// alias a frame that goes when its request does, and an identical
	// re-put may outstay the first), meaningful while puts > 0.
	value    []byte
	puts     int  // requests with a put record of this key enqueued
	deleting bool // a tombstone is enqueued
}

func newDisk(kv *seglog.KV) *Disk {
	d := &Disk{kv: kv}
	for i := range d.shards {
		d.shards[i].inflight = make(map[string]inflight)
	}
	return d
}

func (d *Disk) shard(key []byte) *kvShard { return &d.shards[shardOf(key)] }

func unavailable(err error) error {
	return wire.NewError(wire.CodeUnavailable, "metadata log: %v", err)
}

// putBatch implements engine. Per key the shard lock covers the
// dup/divergence check — against the in-flight table, then against the
// logged bytes — and the enqueue of the log record together with the
// key's entry into the table; the lock is not held across the commit.
// Every record is awaited once after the loop, so a request is one
// write and at most one fsync, and it is acknowledged only after it is
// logged. An identical re-put of a pair that is in flight logs it again
// instead of trusting the other request's commit, so its own
// acknowledgement too comes after the log (the log's first-record-wins
// apply absorbs the duplicate); one of a logged pair logs nothing.
func (d *Disk) putBatch(keys, values [][]byte) error {
	enq := make([]enqueued, 0, len(keys))
	var stored []byte // checkLogged's scratch
	var firstErr error
	for i, key := range keys {
		s := d.shard(key)
		s.mu.Lock()
		e := s.inflight[string(key)]
		if e.puts > 0 {
			if !bytes.Equal(e.value, values[i]) {
				s.mu.Unlock()
				firstErr = divergent(key, len(e.value), len(values[i]))
				break
			}
		} else if n, logged := d.kv.LenBytes(key); logged {
			stored, firstErr = d.checkLogged(key, values[i], n, stored)
			s.mu.Unlock()
			if firstErr != nil {
				break
			}
			continue
		} else {
			e.value = append([]byte(nil), values[i]...)
		}
		k := string(key)
		wait, err := d.kv.EnqueuePut(k, values[i])
		if err != nil {
			s.mu.Unlock()
			firstErr = unavailable(err)
			break
		}
		e.puts++
		s.inflight[k] = e
		s.mu.Unlock()
		enq = append(enq, enqueued{k, wait})
	}
	if err := d.settle(enq, false); err != nil {
		return unavailable(err)
	}
	return firstErr
}

// checkLogged holds a re-put of key against the n bytes the log has for
// it: nil if value is those bytes. Two values of one length can differ,
// so the compare reads them, into scratch, which it returns for reuse.
func (d *Disk) checkLogged(key, value []byte, n uint32, scratch []byte) ([]byte, error) {
	if int(n) == len(value) {
		var err error
		if scratch, err = d.kv.GetAppendBytes(scratch[:0], key, 0, wire.WholePage); err != nil {
			return nil, unavailable(err)
		}
		if bytes.Equal(scratch, value) {
			return scratch, nil
		}
	}
	return scratch, divergent(key, int(n), len(value))
}

// enqueued is one record a request has queued on the log: the key as
// the in-flight table holds it — the request's reference on that entry —
// and the wait for the record's commit.
type enqueued struct {
	key  string
	wait func() error
}

// settle awaits the records a request enqueued — every one, even when a
// later key failed: the first may have designated this handler as the
// batch leader, and an unawaited leader stalls the whole queue — and
// then drops the request's references (on tombstones or on puts) from
// the in-flight table. What the commit applied is in the log's index by
// now; what it did not is nowhere, which is all withdrawing a failed
// request's pairs takes.
func (d *Disk) settle(enq []enqueued, tombstones bool) error {
	var commitErr error
	for _, q := range enq {
		if err := q.wait(); err != nil && commitErr == nil {
			commitErr = err
		}
	}
	for _, q := range enq {
		s := &d.shards[shardOf(q.key)]
		s.mu.Lock()
		e := s.inflight[q.key]
		if tombstones {
			e.deleting = false
		} else {
			e.puts--
		}
		if e.puts == 0 && !e.deleting {
			delete(s.inflight, q.key)
		} else {
			s.inflight[q.key] = e
		}
		s.mu.Unlock()
	}
	return commitErr
}

// getBatch implements engine. Every value of the response is read into
// one buffer from the pool the rpc frames come from, sized from the
// index before the first pread; release hands it back.
func (d *Disk) getBatch(keys [][]byte, found []bool, values [][]byte) ([]byte, error) {
	total := 0
	for _, key := range keys {
		total += d.valueLen(key)
	}
	var buf []byte
	if total > 0 {
		buf = bufpool.GetBytes(total)[:0]
	}
	for i, key := range keys {
		room := buf[len(buf):]
		v, err := d.read(room, key)
		if err != nil {
			if errors.Is(err, seglog.ErrNotFound) {
				continue
			}
			d.release(buf)
			return nil, unavailable(err)
		}
		found[i], values[i] = true, v[:len(v):len(v)]
		// A pair that arrived since the sizing pass may not have fit: read
		// then allocated its own memory and left buf alone.
		if len(v) <= cap(room) {
			buf = buf[:len(buf)+len(v)]
		}
	}
	return buf, nil
}

// valueLen is the size of key's value, 0 when there is none.
func (d *Disk) valueLen(key []byte) int {
	s := d.shard(key)
	s.mu.RLock()
	e := s.inflight[string(key)]
	s.mu.RUnlock()
	if e.puts > 0 {
		return len(e.value)
	}
	n, _ := d.kv.LenBytes(key)
	return int(n)
}

// read appends key's value to dst: the in-flight copy if a put of it is
// parked, else the logged bytes.
func (d *Disk) read(dst, key []byte) ([]byte, error) {
	s := d.shard(key)
	s.mu.RLock()
	if e := s.inflight[string(key)]; e.puts > 0 {
		dst = append(dst, e.value...)
		s.mu.RUnlock()
		return dst, nil
	}
	s.mu.RUnlock()
	return d.kv.GetAppendBytes(dst, key, 0, wire.WholePage)
}

// release implements engine: the buffer goes back to the pool.
func (*Disk) release(lent []byte) {
	if lent != nil {
		bufpool.PutBytes(lent)
	}
}

// deleteBatch implements engine. Like putBatch, each tombstone is
// enqueued under the shard lock and the whole batch is awaited at once
// after the loop, so its records share write+fsync via group commit —
// GC sweeps delete thousands of keys per request, and one fsync per key
// would serialize the sweep on the disk. A key leaves the log's index
// only when its tombstone's batch applies, so until then the in-flight
// table marks it: a repeat inside the request or a concurrent sweep
// neither logs a second tombstone nor counts the key again. A crash
// before the batch commits may resurrect some pairs of an
// unacknowledged batch; deletes are idempotent, so the collector's
// re-run removes them again. Deleting a key whose put is in flight is
// outside the contract — keys are collected only once unreachable, and
// a key being put belongs to an unpublished version.
func (d *Disk) deleteBatch(keys [][]byte) (uint64, error) {
	enq := make([]enqueued, 0, len(keys))
	var firstErr error
	for _, key := range keys {
		s := d.shard(key)
		s.mu.Lock()
		e := s.inflight[string(key)]
		if _, logged := d.kv.LenBytes(key); !logged || e.deleting {
			s.mu.Unlock()
			continue
		}
		k := string(key)
		wait, err := d.kv.EnqueueDelete(k)
		if err != nil {
			s.mu.Unlock()
			firstErr = err
			break
		}
		e.deleting = true
		s.inflight[k] = e
		s.mu.Unlock()
		enq = append(enq, enqueued{k, wait})
	}
	if err := d.settle(enq, true); err != nil && firstErr == nil {
		firstErr = err
	}
	if firstErr != nil {
		return uint64(len(enq)), unavailable(firstErr)
	}
	return uint64(len(enq)), nil
}

// stats implements engine: the log's counters.
func (d *Disk) stats() (keys, bytes uint64) {
	st := d.kv.Stats()
	return st.Keys, st.ValueBytes
}

// close implements engine.
func (d *Disk) close() error { return d.kv.Close() }
