package dht

import (
	"bytes"
	"errors"

	"blobseer/internal/bufpool"
	"blobseer/internal/obs"
	"blobseer/internal/seglog"
	"blobseer/internal/wire"
)

// A metadata node keeps every pair in a seglog.KV and nowhere else: in
// RAM for a node started with no path (the paper's RAM-resident
// metadata providers), or on disk, so the segment trees survive a
// restart of the whole cluster (extension — node volatility was future
// work in the paper) and a node's RAM and restart time do not grow with
// every tree node it was ever handed: a GET reads the pair from its log
// segment (the OS page cache is the only cache), a restart rebuilds the
// KV's index and reads no value. Layout, recovery, snapshots and
// compaction are the KV's (see internal/seglog/kv.go).
//
// Durability contract: a request is acknowledged once the log holds
// each of its keys with bytes equal to the request's; a pair is readable
// iff logged; a request whose bytes differ from what the log holds for a
// key fails as divergent. All the records of one PUT, MULTI_PUT or
// DELETE travel as one batch — one write and at most one fsync — and a
// failed commit logs, and so leaves, nothing. The node keeps no state of
// its own beside the log, so there is no window in which the two could
// disagree: a pair whose commit is parked is absent, a pair whose
// tombstone's commit is parked is present, and the paper's rules keep
// anyone from looking — a tree node is reachable only from a root whose
// writer was acknowledged, a writer is acknowledged only after every
// node under that root is logged, and a key is deleted only once no
// retained root reaches it. With Sync on, logged means on disk. With
// Sync off, acknowledged records in the active segment may be lost by a
// crash — but never by a clean shutdown and never in a way that prevents
// reopening, because the layout below seals segments with an fsync.

// metaLayout is the metadata log's instantiation of the KV: its file
// magics, raw KeyLen-byte keys, and an fsync of every segment (and the
// directory) at seal and at Close even with Sync off. Segment format 1
// framed each key with a uint32 length; a log of that format refuses to
// open rather than be misread.
var metaLayout = &seglog.KVLayout{
	Format: seglog.Format{
		Name:      "dht",
		RecMagic:  0xD47A5EE5,
		SegMagic:  0xD47A5E60,
		SegFormat: 2,
		SnapMagic: 0xD47A55A9,
	},
	KeyLen:   KeyLen,
	SealSync: true,
}

// LogOptions tunes a node's metadata log, on disk or in memory: the
// KV's own options, as pagestore.DiskOptions are (see seglog.KVOptions).
type LogOptions = seglog.KVOptions

// Disk is the engine: the pairs are the seglog.KV's, and there is no
// other state — this file only maps the engine contract onto the log,
// as pagestore.Disk maps the page store's.
type Disk struct{ kv *seglog.KV }

func newDisk(kv *seglog.KV) *Disk { return &Disk{kv: kv} }

func unavailable(err error) error {
	return wire.NewError(wire.CodeUnavailable, "metadata log: %v", err)
}

// putBatch implements engine: one batch on the log, then the
// immutability compare for each record that lost — to a pair logged
// before the request came, or to one queued ahead of it by a concurrent
// request or by an earlier mention in this one. The winner is logged by
// then, so the compare has the log to go by: identical bytes are a
// success, acknowledged like any other after the log holds them, and
// different bytes are the divergence, the first in request order being
// the one reported. A put that loses to a pair whose own commit failed
// has lost to nothing: its record is the one that enters the log.
func (d *Disk) putBatch(keys, values [][]byte) error {
	lost, err := d.kv.PutBatch(keys, values)
	if err != nil {
		return unavailable(err)
	}
	var stored []byte // checkLogged's scratch
	for _, i := range lost {
		if stored, err = d.checkLogged(keys[i], values[i], stored); err != nil {
			return err
		}
	}
	return nil
}

// checkLogged holds a re-put of key against what the log has for it:
// nil if value is those bytes. Two values of one length can differ, so
// the compare reads them, into scratch, which it returns for reuse. A
// key the log no longer has was deleted while it was being put, which
// the contract rules out: the request fails as unavailable.
func (d *Disk) checkLogged(key, value, scratch []byte) ([]byte, error) {
	stored, err := d.kv.GetAppendBytes(scratch[:0], key, 0, wire.WholePage)
	if err != nil {
		return scratch, unavailable(err)
	}
	if !bytes.Equal(stored, value) {
		return stored, divergent(key, len(stored), len(value))
	}
	return stored, nil
}

// getBatch implements engine. Every value of the response is read into
// one buffer from the pool the rpc frames come from, sized from the
// index before the first pread; release hands it back.
func (d *Disk) getBatch(keys [][]byte, found []bool, values [][]byte) ([]byte, error) {
	total := 0
	for _, key := range keys {
		n, _ := d.kv.LenBytes(key)
		total += int(n)
	}
	var buf []byte
	if total > 0 {
		buf = bufpool.GetBytes(total)[:0]
	}
	for i, key := range keys {
		room := buf[len(buf):]
		v, err := d.kv.GetAppendBytes(room, key, 0, wire.WholePage)
		if err != nil {
			if errors.Is(err, seglog.ErrNotFound) {
				continue
			}
			d.release(buf)
			return nil, unavailable(err)
		}
		found[i], values[i] = true, v[:len(v):len(v)]
		// A pair that arrived since the sizing pass may not have fit: the
		// read then allocated its own memory and left buf alone.
		if len(v) <= cap(room) {
			buf = buf[:len(buf)+len(v)]
		}
	}
	return buf, nil
}

// release implements engine: the buffer goes back to the pool.
func (*Disk) release(lent []byte) {
	if lent != nil {
		bufpool.PutBytes(lent)
	}
}

// deleteBatch implements engine: one batch of tombstones on the log —
// GC sweeps delete thousands of keys per request, and one fsync per key
// would serialize the sweep on the disk — and the count is of the pairs
// those tombstones took out of the log's index. A key leaves the index
// when the first tombstone for it applies, so a key named n times, in
// one request or by concurrent sweeps, is counted once and may log up to
// n tombstones; the redundant ones are hygiene's to drop (see
// seglog/hygiene.go). A crash before the batch commits may resurrect
// some pairs of an unacknowledged batch; deletes are idempotent, so the
// collector's re-run removes them again. Deleting a key whose put is in
// flight is outside the contract — keys are collected only once
// unreachable, and a key being put belongs to an unpublished version.
func (d *Disk) deleteBatch(keys [][]byte) (uint64, error) {
	deleted, err := d.kv.DeleteBatch(keys)
	if err != nil {
		return deleted, unavailable(err)
	}
	return deleted, nil
}

// Metrics implements engine: the log's series.
func (d *Disk) Metrics(s *obs.Sink) { d.kv.Metrics(s) }

// close implements engine.
func (d *Disk) close() error { return d.kv.Close() }
