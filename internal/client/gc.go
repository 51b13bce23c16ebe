package client

import (
	"context"
	"fmt"
	"sort"
	"time"

	"blobseer/internal/core"
	"blobseer/internal/meta"
	"blobseer/internal/vclock"
	"blobseer/internal/wire"
)

// This file implements the client side of version retention: EXPIRE
// marks old snapshots unreadable at the version manager, and
// CollectGarbage turns that decision into reclaimed bytes by walking the
// expired snapshots' segment trees and deleting every page — and every
// metadata tree node — reachable only from them.
//
// Safety rests on one structural property of the versioned segment tree:
// trees share monotonically. A node created at version c appears in
// snapshot r's tree exactly when no update in (c, r] touched its range,
// so anything an expired snapshot shares with some retained snapshot is
// also shared with the oldest retained one — diffing expired trees
// against that single tree finds precisely the pages AND tree nodes no
// retained version (or branch, whose branch point the manager pins above
// the floor; or in-flight update, whose base the manager refuses to
// expire) can still reach. The walk prunes at the namespace boundary
// (links below the blob's own lineage floor lead into an ancestor's
// trees): pages and nodes written by an ancestor are candidates only
// when the ancestor itself is collected, under its own pins.
//
// Crash safety: EXPIRE is durable at the manager, GC_INFO is a read, and
// page and node deletes are idempotent, so a collector that dies
// mid-sweep is simply re-run. Pages already deleted stay deleted (they
// were already proven unreachable); the rest are found again. Metadata
// nodes are deleted strictly after every page delete succeeded, so a
// crashed sweep can never orphan a still-referenced page behind a
// missing tree; expired-tree walks tolerate nodes a previous sweep
// already removed by pruning the (already collected) subtree.

// gcDeleteBatch bounds one DELETE_PAGES or DHT_DELETE request, so a
// huge sweep neither builds one enormous frame nor serializes on a
// single round trip.
const gcDeleteBatch = 4096

// reclaimTimeout bounds each best-effort reclaim delete; reclaimFanout
// bounds how many providers are reclaimed from concurrently.
const (
	reclaimTimeout = 2 * time.Second
	reclaimFanout  = 4
)

// GCStats summarizes one CollectGarbage run.
type GCStats struct {
	ExpiredVersions int // expired snapshot trees walked
	WalkedNodes     int // metadata nodes fetched across all walks
	CandidatePages  int // distinct pages reachable from expired snapshots via expired-only structure
	// RetainedPages counts candidates kept because the page mark covers
	// them. Normally 0: a shared page sits under a shared leaf, and
	// shared subtrees are pruned at the node level before their leaves
	// are fetched — a nonzero value means the defense-in-depth mark
	// caught a page shared without its leaf.
	RetainedPages int
	DeletedPages  int // pages whose deletion was issued
	DeleteRPCs    int // DELETE_PAGES round trips to providers

	RetainedNodes     int // tree nodes kept: shared with the oldest retained tree (counted at the prune boundary)
	DeletedNodes      int // tree nodes whose deletion was issued to the metadata replicas
	NodeDeleteBatches int // DHT_DELETE batches issued (each fans out to the replica nodes)
}

// ExpireVersions marks every snapshot of the blob's own namespace with
// version <= upTo as expired: permanently unreadable, its exclusive
// pages reclaimable by CollectGarbage. The manager refuses to expire the
// newest readable snapshot, a branch point some live branch rests on, or
// the base an in-flight update is weaving against, and clamps to the
// cluster's keep-last-N retention policy. It returns the blob's expiry
// floor and the versions newly expired by this call.
func (c *Client) ExpireVersions(ctx context.Context, id wire.BlobID, upTo wire.Version) (wire.Version, []wire.Version, error) {
	resp, err := c.vm(ctx, &wire.ExpireReq{Blob: id, UpTo: upTo})
	if err != nil {
		return 0, nil, err
	}
	r := resp.(*wire.ExpireResp)
	return r.Floor, r.Expired, nil
}

// CollectGarbage reclaims the pages and the metadata of the blob's
// expired snapshots: it fetches the GC plan from the version manager,
// walks each expired snapshot's tree for candidate pages and tree
// nodes, subtracts everything the oldest retained snapshot still
// reaches, issues batched page deletes to the providers holding the
// remainder (all replicas), and then — only once every page delete
// succeeded — batch-deletes the exclusively-expired tree nodes from the
// metadata replicas. It is idempotent and safe to re-run after a crash
// or partial failure, and safe against concurrent updates, branches and
// readers: anything they can reference is retained by construction.
func (c *Client) CollectGarbage(ctx context.Context, id wire.BlobID) (GCStats, error) {
	var stats GCStats
	h, err := c.handle(ctx, id)
	if err != nil {
		return stats, err
	}
	resp, err := c.vm(ctx, &wire.GCInfoReq{Blob: id})
	if err != nil {
		return stats, err
	}
	info := resp.(*wire.GCInfoResp)
	if len(info.Expired) == 0 {
		return stats, nil
	}
	stats.ExpiredVersions = len(info.Expired)
	ps := h.pageSize

	// Mark: pages and tree nodes the oldest retained snapshot reaches in
	// this namespace. This walk is strict — a node missing from a
	// retained tree is corruption, and nothing may be deleted on top of
	// it.
	mark := make(map[wire.PageID]bool)
	retained := make(map[core.NodeID]bool)
	if info.Retained.Size > 0 {
		root := core.RootID(info.Retained.Version, pagesOf(info.Retained.Size, ps))
		err := c.walkTree(ctx, h.store, []core.NodeID{root}, info.OwnMin, retained, nil, false, &stats, func(n core.Node) {
			mark[n.Page] = true
		})
		if err != nil {
			return stats, fmt.Errorf("gc: walking retained snapshot %d: %w", info.Retained.Version, err)
		}
	}

	// Sweep candidates: expired-reachable pages the mark does not cover.
	// Consecutive expired snapshots share most of their trees (that is
	// the whole versioning design), so all of them are walked as one
	// breadth-first frontier over one visited set: every shared subtree
	// is descended once — a NodeID names an immutable subtree, the same
	// property the mark diff rests on — and a root a previous sweep
	// already collected costs a slot in the first batched fetch, not a
	// round trip of its own. The retained set prunes too: a node the
	// oldest retained tree holds roots an entirely-retained subtree, so
	// descending it again would only re-fetch structure the mark walk
	// already proved alive. This walk tolerates missing nodes: a previous
	// crashed sweep may already have deleted whole expired subtrees.
	visited := make(map[core.NodeID]bool)
	seen := make(map[wire.PageID]bool)
	victims := make(map[wire.PageID][]string)
	roots := make([]core.NodeID, 0, len(info.Expired))
	for _, e := range info.Expired {
		if e.Size > 0 { // the empty snapshot 0 has no tree
			roots = append(roots, core.RootID(e.Version, pagesOf(e.Size, ps)))
		}
	}
	err = c.walkTree(ctx, h.store, roots, info.OwnMin, visited, retained, true, &stats, func(n core.Node) {
		if seen[n.Page] {
			return
		}
		seen[n.Page] = true
		if mark[n.Page] {
			// Defense in depth: page ids are written once and named
			// by exactly the leaf their writer created, so a marked
			// page should only ever be reachable through a retained
			// (pruned) leaf — but deletion stays gated on the page
			// mark, not on that structural argument.
			stats.RetainedPages++
			return
		}
		victims[n.Page] = n.Providers
	})
	if err != nil {
		return stats, fmt.Errorf("gc: walking %d expired snapshots: %w", len(roots), err)
	}
	stats.CandidatePages = len(seen)
	stats.DeletedPages = len(victims)

	// The metadata victims: every node an expired walk touched that the
	// oldest retained tree does not share. All walked ids are >= OwnMin,
	// so they live in the blob's own namespace and key under its id.
	var nodeVictims []core.NodeID
	for nid := range visited {
		if retained[nid] {
			stats.RetainedNodes++
			continue
		}
		nodeVictims = append(nodeVictims, nid)
	}
	stats.DeletedNodes = len(nodeVictims)

	if len(victims) > 0 {
		if err := c.deletePages(ctx, victims, &stats); err != nil {
			return stats, fmt.Errorf("gc: deleting pages: %w", err)
		}
	}
	// Pages first, metadata second: a crash between the two leaves every
	// remaining victim page still named by the expired trees, so a
	// re-run finds it again. The reverse order could strand deleted
	// trees' pages forever.
	if err := c.deleteNodes(ctx, id, nodeVictims, stats.DeleteRPCs, &stats); err != nil {
		return stats, fmt.Errorf("gc: deleting metadata nodes: %w", err)
	}
	return stats, nil
}

// deletePages groups the victim pages by provider (every replica) and
// deletes them in bounded, deterministically ordered batches.
func (c *Client) deletePages(ctx context.Context, victims map[wire.PageID][]string, stats *GCStats) error {
	byAddr := make(map[string][]wire.PageID)
	for pg, provs := range victims {
		for _, addr := range provs {
			byAddr[addr] = append(byAddr[addr], pg)
		}
	}
	type chunk struct {
		addr  string
		pages []wire.PageID
	}
	var chunks []chunk
	addrs := make([]string, 0, len(byAddr))
	for addr := range byAddr {
		addrs = append(addrs, addr)
	}
	sort.Strings(addrs)
	for _, addr := range addrs {
		pages := byAddr[addr]
		// Deterministic batch contents so a partial failure is reproducible.
		sort.Slice(pages, func(i, j int) bool {
			return string(pages[i][:]) < string(pages[j][:])
		})
		for len(pages) > 0 {
			n := len(pages)
			if n > gcDeleteBatch {
				n = gcDeleteBatch
			}
			chunks = append(chunks, chunk{addr: addr, pages: pages[:n]})
			pages = pages[n:]
		}
	}
	stats.DeleteRPCs = len(chunks)
	return vclock.ParallelLimit(c.sched, len(chunks), maxFanout, func(i int) error {
		if c.gcCrash != nil {
			// Test-only fault injection: simulate the collector dying
			// after issuing only part of its deletes.
			if err := c.gcCrash(i); err != nil {
				return err
			}
		}
		_, err := c.rpc.Call(ctx, chunks[i].addr, &wire.DeletePagesReq{Pages: chunks[i].pages})
		return err
	})
}

// deleteNodes batch-deletes the victim tree nodes from the metadata
// replicas, strictly bottom-up: victims are grouped by span (a NodeID's
// span is its height — children always span less than their parents)
// and a span level is deleted only after every smaller level fully
// succeeded. The ordering is what keeps a crashed sweep re-runnable:
// the tolerant re-walk prunes at a missing node, so an interior node
// may only go missing once every victim beneath it is already gone —
// otherwise the crash would strand unreachable descendants in the DHT
// forever. Within one level no node is another's ancestor, so chunks
// fan out freely. crashBase continues the gcCrash chunk numbering
// across the page batches, so fault-injection tests can kill the
// collector between the page sweep and any point of the metadata sweep.
func (c *Client) deleteNodes(ctx context.Context, id wire.BlobID, victims []core.NodeID,
	crashBase int, stats *GCStats) error {

	if len(victims) == 0 {
		return nil
	}
	// Deterministic order: ascending span, then position, so a partial
	// failure is reproducible.
	sort.Slice(victims, func(i, j int) bool {
		a, b := victims[i], victims[j]
		if a.Span != b.Span {
			return a.Span < b.Span
		}
		if a.Offset != b.Offset {
			return a.Offset < b.Offset
		}
		return a.Version < b.Version
	})
	chunkNo := crashBase
	for lo := 0; lo < len(victims); {
		hi := lo
		for hi < len(victims) && victims[hi].Span == victims[lo].Span {
			hi++
		}
		var chunks [][][]byte
		for at := lo; at < hi; at += gcDeleteBatch {
			end := at + gcDeleteBatch
			if end > hi {
				end = hi
			}
			keys := make([][]byte, 0, end-at)
			for _, nid := range victims[at:end] {
				keys = append(keys, meta.NodeKey(id, nid))
			}
			chunks = append(chunks, keys)
		}
		stats.NodeDeleteBatches += len(chunks)
		base := chunkNo
		chunkNo += len(chunks)
		err := vclock.ParallelLimit(c.sched, len(chunks), maxFanout, func(i int) error {
			if c.gcCrash != nil {
				if err := c.gcCrash(base + i); err != nil {
					return err
				}
			}
			_, err := c.dht.Delete(ctx, chunks[i])
			return err
		})
		if err != nil {
			// Level barrier: never touch a larger span with this level
			// incomplete.
			return err
		}
		lo = hi
	}
	return nil
}

// walkTree visits every leaf of the given snapshot trees that belongs
// to the blob's own namespace, descending all of them together,
// breadth-first, with one batched metadata fetch per level (the
// read-path pattern). Links carrying wire.NoVersion (never-written
// holes of an incomplete tree) and links below ownMin (subtrees woven
// in from an ancestor blob's namespace) are pruned, as is any node
// already in visited (trees weave into each other and nodes are
// immutable, so a NodeID seen once never needs descending again). A
// non-nil retained set also prunes: a node the retained tree holds
// roots an entirely-retained, entirely-already-fetched subtree; the
// pruned node is still added to visited so the victim diff can count it
// (and skip it) without a second fetch. Every rule looks at one node
// only, so what is reached does not depend on which root it is reached
// from, or in what order. With tolerateMissing set, a node absent from
// every metadata replica prunes its subtree instead of failing the walk
// — expired trees may be partially deleted by a previous crashed
// collection; strict walks treat absence as the corruption it would be
// in a retained tree.
func (c *Client) walkTree(ctx context.Context, st *meta.Store, roots []core.NodeID,
	ownMin wire.Version, visited, retained map[core.NodeID]bool, tolerateMissing bool,
	stats *GCStats, leaf func(core.Node)) error {

	// admit applies the prune rules to one link and queues what passes
	// them for the next level's fetch.
	var next []core.NodeID
	admit := func(id core.NodeID) {
		if id.Version == wire.NoVersion || id.Version < ownMin || visited[id] {
			return
		}
		visited[id] = true
		if !retained[id] { // a retained subtree is alive by definition, and already fetched
			next = append(next, id)
		}
	}
	for _, root := range roots {
		admit(root)
	}
	for len(next) > 0 {
		frontier := next
		next = nil
		var nodes []core.Node
		var found []bool
		var err error
		if tolerateMissing {
			nodes, found, err = st.TryGetNodes(ctx, frontier)
		} else {
			nodes, err = st.GetNodes(ctx, frontier)
		}
		if err != nil {
			return err
		}
		for i, id := range frontier {
			if found != nil && !found[i] {
				continue // already collected by a previous sweep
			}
			stats.WalkedNodes++
			n := nodes[i]
			if id.IsLeaf() {
				if !n.Leaf {
					return fmt.Errorf("node %v should be a leaf", id)
				}
				leaf(n)
				continue
			}
			if n.Leaf {
				return fmt.Errorf("node %v should be inner", id)
			}
			admit(id.Left(n.VL))
			admit(id.Right(n.VR))
		}
	}
	return nil
}

// reclaimPages best-effort deletes pages this writer stored but will
// never reference: their update aborted before completing, or an
// optimistic append bet failed before any metadata named them. The page
// ids are private to this writer until its metadata is woven, so nothing
// else can reach them and deletion is always safe; failures just leave
// garbage a later sweep may never see, which is why this runs eagerly.
func (c *Client) reclaimPages(ctx context.Context, pws []core.PageWrite) {
	if len(pws) == 0 {
		return
	}
	byAddr := make(map[string][]wire.PageID)
	for _, pw := range pws {
		for _, addr := range pw.Providers {
			byAddr[addr] = append(byAddr[addr], pw.Page)
		}
	}
	addrs := make([]string, 0, len(byAddr))
	for addr := range byAddr {
		addrs = append(addrs, addr)
	}
	sort.Strings(addrs)
	// Bounded fan-out with a per-call deadline: a hung provider costs one
	// timed-out call, not the whole reclaim. Failures are counted, never
	// propagated — the pages were already proven unreachable, so the only
	// loss is disk a later manual sweep must find.
	_ = vclock.ParallelLimit(c.sched, len(addrs), reclaimFanout, func(i int) error {
		cctx, cancel := context.WithTimeout(ctx, reclaimTimeout)
		defer cancel()
		if _, err := c.rpc.Call(cctx, addrs[i], &wire.DeletePagesReq{Pages: byAddr[addrs[i]]}); err != nil {
			c.reclaimFailures.Add(1)
		}
		return nil
	})
}
