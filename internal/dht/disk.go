package dht

import (
	"bytes"
	"errors"

	"blobseer/internal/bufpool"
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
// compaction are the KV's (see internal/seglog/kv.go); this file holds
// the node's contract with its log, and node.go the wire front-end.
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

// lend and giveBack are where a MULTI_GET's value buffer comes from and
// goes back to: the pool the rpc frames come from. Every loan goes
// through them, so a test can keep books on them.
var lend, giveBack = bufpool.GetBytes, bufpool.PutBytes

func unavailable(err error) error {
	return wire.NewError(wire.CodeUnavailable, "metadata log: %v", err)
}

// putBatch stores the pairs of one request as one batch on the log and
// returns once the log holds them; keys and values alias the request's
// frame, and the log copies what it keeps. Values are immutable: node
// keys embed version+range, so two writers can only ever produce
// identical bytes for one key, and a re-put of different bytes signals
// corruption (or a buggy client) that keeping the first value would
// hide. So each record that lost — to a pair logged before the request
// came, or queued ahead of it by a concurrent request or an earlier
// mention in this one — is compared with the winner, logged by then:
// identical bytes are a success, different bytes the divergence, the
// first in request order being the one reported. It fails the request;
// the pairs before it stay stored, and those after it may. A put that
// loses to a pair whose own commit failed has lost to nothing: its
// record is the one that enters the log.
func (n *Node) putBatch(keys, values [][]byte) error {
	lost, err := n.log.PutBatch(keys, values)
	if err != nil {
		return unavailable(err)
	}
	var stored []byte // checkLogged's scratch
	for _, i := range lost {
		if stored, err = n.checkLogged(keys[i], values[i], stored); err != nil {
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
func (n *Node) checkLogged(key, value, scratch []byte) ([]byte, error) {
	stored, err := n.log.GetAppendBytes(scratch[:0], key, 0, wire.WholePage)
	if err != nil {
		return scratch, unavailable(err)
	}
	if !bytes.Equal(stored, value) {
		return stored, wire.NewError(wire.CodeBadRequest,
			"divergent re-put of key %x: stored %d bytes, got %d", key, len(stored), len(value))
	}
	return stored, nil
}

// getBatch looks keys up, setting found[i] and values[i] for each keys[i]
// the log holds. Every value is read into one buffer from lend, sized
// from the index's hints before the first pread — no disk is read to
// size it — with KeyLen bytes of room on top of each value, so that
// each read checks its key in the value's own pread; the values are
// read-only and on loan with it until the caller passes it to release,
// once, as the last thing it does with them. A failed getBatch gives it
// back itself.
func (n *Node) getBatch(keys [][]byte, found []bool, values [][]byte) ([]byte, error) {
	total := 0
	for _, key := range keys {
		if l, ok := n.log.LenHint(key); ok {
			total += int(l) + KeyLen
		}
	}
	var buf []byte
	if total > 0 {
		buf = lend(total)[:0]
	}
	for i, key := range keys {
		room := buf[len(buf):]
		v, err := n.log.GetAppendBytes(room, key, 0, wire.WholePage)
		if err != nil {
			if errors.Is(err, seglog.ErrNotFound) {
				continue
			}
			release(buf)
			return nil, unavailable(err)
		}
		found[i], values[i] = true, v[:len(v):len(v)]
		// A pair that arrived since the sizing pass, or whose hint was
		// another key's, may not have fit: the read then allocated its own
		// memory and left buf alone.
		if len(v) <= cap(room) {
			buf = buf[:len(buf)+len(v)]
		}
	}
	return buf, nil
}

// release takes back what one getBatch lent, if it lent a buffer.
func release(lent []byte) {
	if lent != nil {
		giveBack(lent)
	}
}

// deleteBatch removes pairs with one batch of tombstones on the log — GC
// sweeps delete thousands of keys per request, and one fsync per key
// would serialize the sweep on the disk — and returns how many pairs
// those tombstones took out of the log's index. The caller (a collector
// walking version metadata) has proven every key unreachable; keys are
// never reused afterwards, and unknown keys are no-ops. A key leaves the
// index when the first tombstone for it applies, so a key named n times,
// in one request or by concurrent sweeps, is counted once and may log up
// to n tombstones; the redundant ones are hygiene's to drop (see
// seglog/hygiene.go). A crash before the batch commits may resurrect
// some pairs of an unacknowledged batch; deletes are idempotent, so the
// collector's re-run removes them again. Deleting a key whose put is in
// flight is outside the contract — keys are collected only once
// unreachable, and a key being put belongs to an unpublished version.
func (n *Node) deleteBatch(keys [][]byte) (uint64, error) {
	deleted, err := n.log.DeleteBatch(keys)
	if err != nil {
		return deleted, unavailable(err)
	}
	return deleted, nil
}
