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
// CollectGarbage turns that decision into reclaimed bytes by diffing
// the expired snapshots' segment trees against the oldest retained one
// and deleting every page — and every metadata tree node — only the
// expired trees reach.
//
// Safety rests on one structural property of the versioned segment tree:
// trees share monotonically. A node created at version c appears in
// snapshot r's tree exactly when no update in (c, r] touched its range,
// so anything an expired snapshot shares with some retained snapshot is
// also shared with the oldest retained one — diffing expired trees
// against that single tree finds precisely the pages AND tree nodes no
// retained version (or branch, whose branch point the manager pins above
// the floor; or in-flight update, whose base the manager refuses to
// expire) can still reach. The diff prunes at the namespace boundary
// (links below the blob's own lineage floor lead into an ancestor's
// trees): pages and nodes written by an ancestor are candidates only
// when the ancestor itself is collected, under its own pins.
//
// The diff is a lockstep descent (ForkBase's POS-tree diff): each
// expired node is paired with the retained node over the same range,
// and the retained tree holds exactly one node per range. A NodeID
// names an immutable subtree, so a child equal to its retained
// counterpart is shared whole and is pruned without being fetched; a
// child that differs is not in the retained tree at all, so it is a
// victim and is descended. The cost is the victims plus the retained
// inner nodes they are compared against — what changed, not what the
// blob holds — and retained leaves are never fetched. Expired nodes are
// read around the metadata cache: they may be deleted already (a
// cached copy would resurrect them) and are about to be (a cached copy
// would only evict live ones). Retained nodes go through the cache.
//
// Crash safety: EXPIRE is durable at the manager, GC_INFO is a read, and
// page and node deletes are idempotent, so a collector that dies
// mid-sweep is simply re-run. Pages already deleted stay deleted (they
// were already proven unreachable); the rest are found again. Metadata
// nodes are deleted strictly after every page delete succeeded, and
// bottom-up, so a crashed sweep can never orphan a still-referenced
// page or node behind a missing tree: an absent expired node has no
// victims left beneath it, and the descent prunes there.

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
	ExpiredVersions int // expired snapshot trees diffed
	WalkedNodes     int // tree nodes fetched: expired victims and the retained inner nodes they were compared against
	DeletedPages    int // pages whose deletion was issued
	DeleteRPCs      int // DELETE_PAGES round trips to providers

	RetainedNodes     int // expired-tree links pruned because the oldest retained tree shares them
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
// diffs each expired snapshot's tree against the oldest retained one
// (see diffExpired), issues batched page deletes to the providers
// holding the victim pages (all replicas), and then — only once every
// page delete succeeded — batch-deletes the victim tree nodes from the
// metadata replicas. It is idempotent and safe to re-run after a crash
// or partial failure, and safe against concurrent updates, branches and
// readers: anything they can reference is retained by construction.
func (c *Client) CollectGarbage(ctx context.Context, id wire.BlobID) (GCStats, error) {
	var stats GCStats
	pages, nodes, err := c.gcVictims(ctx, id, &stats)
	if err != nil {
		return stats, err
	}
	stats.DeletedPages, stats.DeletedNodes = len(pages), len(nodes)
	if err := c.deletePages(ctx, pages, &stats); err != nil {
		return stats, fmt.Errorf("gc: deleting pages: %w", err)
	}
	// Pages first, metadata second: a crash between the two leaves every
	// remaining victim page still named by the expired trees, so a
	// re-run finds it again. The reverse order could strand deleted
	// trees' pages forever.
	if err := c.deleteNodes(ctx, id, nodes, stats.DeleteRPCs, &stats); err != nil {
		return stats, fmt.Errorf("gc: deleting metadata nodes: %w", err)
	}
	return stats, nil
}

// gcVictims asks the version manager for the blob's GC plan and diffs
// its expired trees against its oldest retained tree.
func (c *Client) gcVictims(ctx context.Context, id wire.BlobID, stats *GCStats) ([]core.PageWrite, []core.NodeID, error) {
	h, err := c.handle(ctx, id)
	if err != nil {
		return nil, nil, err
	}
	resp, err := c.vm(ctx, &wire.GCInfoReq{Blob: id})
	if err != nil {
		return nil, nil, err
	}
	info := resp.(*wire.GCInfoResp)
	stats.ExpiredVersions = len(info.Expired)
	var roots []core.NodeID
	for _, e := range info.Expired {
		if e.Size > 0 { // the empty snapshot 0 has no tree
			roots = append(roots, core.RootID(e.Version, pagesOf(e.Size, h.pageSize)))
		}
	}
	if len(roots) == 0 {
		return nil, nil, nil
	}
	ret := core.RootID(info.Retained.Version, pagesOf(info.Retained.Size, h.pageSize))
	pages, nodes, err := diffExpired(ctx, h.store, roots, ret, info.OwnMin, stats)
	if err != nil {
		return nil, nil, fmt.Errorf("gc: diffing %d expired snapshots against %d: %w", len(roots), info.Retained.Version, err)
	}
	return pages, nodes, nil
}

// deletePages groups the victim pages by provider (every replica) and
// deletes them in bounded, deterministically ordered batches.
func (c *Client) deletePages(ctx context.Context, victims []core.PageWrite, stats *GCStats) error {
	type chunk struct {
		addr  string
		pages []wire.PageID
	}
	var chunks []chunk
	addrs, byAddr := byProvider(victims)
	for _, addr := range addrs {
		pages := byAddr[addr]
		// Deterministic batch contents so a partial failure is reproducible.
		sort.Slice(pages, func(i, j int) bool {
			return string(pages[i][:]) < string(pages[j][:])
		})
		for len(pages) > 0 {
			n := min(len(pages), gcDeleteBatch)
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

// byProvider groups pages by every provider holding a replica, and
// lists those providers in sorted order.
func byProvider(pws []core.PageWrite) ([]string, map[string][]wire.PageID) {
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
	return addrs, byAddr
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
			end := min(at+gcDeleteBatch, hi)
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

// diffExpired descends the expired trees rooted at roots in lockstep
// with the retained tree rooted at ret, all of them together,
// breadth-first, with one batched fetch per side per level (the
// read-path pattern), and returns the victims: the nodes the retained
// tree does not hold, and their leaves' pages (a page id is written
// once and named by the one leaf its writer created, so a victim
// leaf's page is garbage too). Each frontier entry pairs
// an expired node with the retained node over the same range; an
// expired root spanning less than ret (the blob grew since) is paired
// with the node down ret's left spine at its span. A child is pruned
// when its link is wire.NoVersion (a never-written hole), below ownMin
// (a subtree woven in from an ancestor blob's namespace), already
// visited (trees weave into each other and nodes are immutable, so a
// NodeID seen once never needs descending again), or equal to its
// retained counterpart (a shared subtree, alive by definition). Every
// rule looks at one node and its range only, so what is reached does
// not depend on which root it is reached from, or in what order.
//
// Expired nodes are fetched around the cache and may be absent: a
// previous sweep deleted them, bottom-up, so nothing beneath an absent
// node is left to find. An absent root is not a victim (most expired
// roots are long collected); an absent node a found parent names is
// (a crashed sweep landed its delete, and the re-run re-issues it).
// The retained side is strict: a node missing from a retained tree is
// corruption, and nothing may be deleted on top of it.
func diffExpired(ctx context.Context, st *meta.Store, roots []core.NodeID, ret core.NodeID,
	ownMin wire.Version, stats *GCStats) (pages []core.PageWrite, victims []core.NodeID, err error) {

	// One buffer of each kind serves every level: the expired ids and
	// nodes, their found flags, and the retained ids and nodes.
	var (
		ids, rids     []core.NodeID
		nodes, rnodes []core.Node
		found         []bool
	)

	// counterpart maps each root span to the retained node over
	// [0, span): ret's left spine, fetched down to the smallest root.
	minSpan := ret.Span
	for _, root := range roots {
		minSpan = min(minSpan, root.Span)
	}
	counterpart := map[uint64]core.NodeID{ret.Span: ret}
	for r := ret; r.Span > minSpan; {
		rids = append(rids[:0], r)
		if rnodes, err = st.GetNodes(ctx, rids, rnodes); err != nil {
			return nil, nil, err
		}
		stats.WalkedNodes++
		r = r.Left(rnodes[0].VL)
		counterpart[r.Span] = r
	}

	type pair struct{ exp, ret core.NodeID }
	visited := make(map[core.NodeID]bool)
	var frontier, next []pair
	admit := func(exp, ret core.NodeID) {
		if exp.Version == wire.NoVersion || exp.Version < ownMin || visited[exp] {
			return
		}
		visited[exp] = true
		if exp == ret {
			stats.RetainedNodes++
			return
		}
		next = append(next, pair{exp, ret})
	}
	for _, root := range roots {
		r, ok := counterpart[root.Span]
		if !ok {
			return nil, nil, fmt.Errorf("expired root %v spans more than retained root %v", root, ret)
		}
		admit(root, r)
	}
	// at indexes the level's retained counterparts in rids.
	at := make(map[core.NodeID]int)
	for level := 0; len(next) > 0; level++ {
		frontier, next = next, frontier[:0]
		ids = ids[:0]
		for _, p := range frontier {
			ids = append(ids, p.exp)
		}
		if nodes, found, err = st.TryGetNodes(ctx, ids, nodes, found); err != nil {
			return nil, nil, err
		}
		// The retained counterparts of the found inner nodes, each
		// fetched once however many expired nodes share its range.
		clear(at)
		rids = rids[:0]
		for i, p := range frontier {
			if found[i] && !p.exp.IsLeaf() {
				if _, ok := at[p.ret]; !ok {
					at[p.ret] = len(rids)
					rids = append(rids, p.ret)
				}
			}
		}
		if rnodes, err = st.GetNodes(ctx, rids, rnodes); err != nil {
			return nil, nil, err
		}
		stats.WalkedNodes += len(rids)
		for i, p := range frontier {
			if !found[i] {
				if level > 0 {
					victims = append(victims, p.exp)
				}
				continue
			}
			stats.WalkedNodes++
			victims = append(victims, p.exp)
			n := nodes[i]
			if n.Leaf != p.exp.IsLeaf() {
				return nil, nil, fmt.Errorf("node %v: leaf flag %v does not match its span", p.exp, n.Leaf)
			}
			if n.Leaf {
				pages = append(pages, core.PageWrite{Page: n.Page, Providers: n.Providers})
				continue
			}
			rn := rnodes[at[p.ret]]
			admit(p.exp.Left(n.VL), p.ret.Left(rn.VL))
			admit(p.exp.Right(n.VR), p.ret.Right(rn.VR))
		}
	}
	return pages, victims, nil
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
	addrs, byAddr := byProvider(pws)
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
