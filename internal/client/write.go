package client

import (
	"context"
	"fmt"

	"blobseer/internal/core"
	"blobseer/internal/vclock"
	"blobseer/internal/wire"
)

// Write implements WRITE: it replaces len(buf) bytes of the blob starting
// at offset, producing a new snapshot whose version is returned. The call
// may return before the snapshot is published (use Sync for
// read-your-writes); it fails if offset exceeds the size of the previous
// snapshot (§2.1).
func (c *Client) Write(ctx context.Context, id wire.BlobID, buf []byte, offset uint64) (wire.Version, error) {
	return c.update(ctx, id, buf, offset, false)
}

// Append implements APPEND: a WRITE whose offset is the size of the
// previous snapshot, assigned by the version manager (§3.3).
func (c *Client) Append(ctx context.Context, id wire.BlobID, buf []byte) (wire.Version, error) {
	return c.update(ctx, id, buf, 0, true)
}

// update drives one WRITE or APPEND through the paper's pipeline:
// store pages on providers, obtain a snapshot version, weave metadata,
// report completion (§3.3, Algorithm 2).
//
// An aligned WRITE and every APPEND follow the paper's order — pages
// first, version second — so concurrent updates proceed with no
// synchronization at all. An append bets that its assigned offset lands
// on a page boundary (true whenever all writers use page-aligned sizes,
// as in the paper's experiments). Updates with an unaligned boundary
// must merge the neighbouring bytes of snapshot vw-1, which requires
// vw-1 to be published; only those synchronize (on SYNC of their
// predecessor) before storing the boundary pages. An unaligned WRITE
// knows it is one, so it asks for its version first: the version pins
// the predecessor whose bytes it merges.
func (c *Client) update(ctx context.Context, id wire.BlobID, buf []byte, offset uint64, isAppend bool) (wire.Version, error) {
	if len(buf) == 0 {
		return 0, wire.NewError(wire.CodeBadRequest, "empty update")
	}
	h, err := c.handle(ctx, id)
	if err != nil {
		return 0, err
	}
	ps := h.pageSize
	size := uint64(len(buf))
	if !isAppend && (offset%ps != 0 || (offset+size)%ps != 0) {
		resp, err := c.assign(ctx, id, offset, size, false)
		if err != nil {
			return 0, err
		}
		return c.mergeAndFinish(ctx, id, h, resp, buf)
	}

	pws, err := c.storePages(ctx, buf, ps)
	if err != nil {
		return 0, err
	}
	resp, err := c.assign(ctx, id, offset, size, isAppend)
	if err != nil {
		// No version was assigned, so no abort can ever cover these
		// pages — reclaim them now or they leak forever (no metadata
		// names them, so GC can never find them).
		c.reclaimPages(ctx, pws)
		return 0, err
	}
	if resp.Offset%ps == 0 {
		return c.finishUpdate(ctx, id, h, resp, resp.Offset/ps, pws)
	}
	// An append's lost bet: the stored pages have the wrong layout.
	// Reclaim them — no metadata will ever name them — then merge the
	// boundary and store again.
	c.reclaimPages(ctx, pws)
	return c.mergeAndFinish(ctx, id, h, resp, buf)
}

// mergeAndFinish completes an assigned unaligned update: read the
// boundary fragments of the latest surviving predecessor snapshot
// (normally resp.Version-1; aborted predecessors are skipped after
// waiting for them to resolve), compose full pages, store them and
// weave the metadata.
func (c *Client) mergeAndFinish(ctx context.Context, id wire.BlobID, h *blobHandle, resp *wire.AssignResp, buf []byte) (wire.Version, error) {
	ps := h.pageSize
	offset := resp.Offset
	end := offset + uint64(len(buf))
	headLen := offset % ps
	var tailLen uint64
	if end%ps != 0 && end < resp.PrevSize {
		tailLen = min(ps-end%ps, resp.PrevSize-end)
	}

	merged := buf
	if headLen > 0 || tailLen > 0 {
		// The boundary bytes belong to the latest surviving predecessor:
		// normally snapshot vw-1, but an aborted predecessor never
		// publishes — step past it, exactly as publication itself skips
		// aborted versions. resp.Published (readable at assign time) is
		// the guaranteed floor. Without the step-down, one abandoned
		// update would wedge every later unaligned update on this blob:
		// each would fail on its aborted predecessor, self-abort, and
		// poison the next.
		prev := resp.Version - 1
		for {
			err := c.Sync(ctx, id, prev)
			if err == nil {
				break
			}
			if wire.CodeOf(err) == wire.CodeAborted && prev > resp.Published {
				prev--
				continue
			}
			return 0, c.abortAfter(ctx, id, resp.Version, nil,
				fmt.Errorf("waiting for predecessor %d: %w", prev, err))
		}
		m := make([]byte, headLen+uint64(len(buf))+tailLen)
		if headLen > 0 {
			if err := c.Read(ctx, id, prev, m[:headLen], offset-headLen); err != nil {
				return 0, c.abortAfter(ctx, id, resp.Version, nil,
					fmt.Errorf("merging head bytes: %w", err))
			}
		}
		copy(m[headLen:], buf)
		if tailLen > 0 {
			if err := c.Read(ctx, id, prev, m[headLen+uint64(len(buf)):], end); err != nil {
				return 0, c.abortAfter(ctx, id, resp.Version, nil,
					fmt.Errorf("merging tail bytes: %w", err))
			}
		}
		merged = m
	}
	pws, err := c.storePages(ctx, merged, ps)
	if err != nil {
		return 0, c.abortAfter(ctx, id, resp.Version, pws, err)
	}
	return c.finishUpdate(ctx, id, h, resp, (offset-headLen)/ps, pws)
}

// finishUpdate weaves the metadata for an assigned update whose pages are
// stored, then reports completion so the version manager can publish it.
func (c *Client) finishUpdate(ctx context.Context, id wire.BlobID, h *blobHandle,
	resp *wire.AssignResp, startPage uint64, pws []core.PageWrite) (wire.Version, error) {

	if err := c.buildMetadata(ctx, h, resp, startPage, pws); err != nil {
		return 0, c.abortAfter(ctx, id, resp.Version, pws, err)
	}
	if _, err := c.vm(ctx, &wire.CompleteReq{Blob: id, Version: resp.Version}); err != nil {
		return 0, err
	}
	return resp.Version, nil
}

// assign registers the update with the version manager.
func (c *Client) assign(ctx context.Context, id wire.BlobID, offset, size uint64, isAppend bool) (*wire.AssignResp, error) {
	resp, err := c.vm(ctx, &wire.AssignReq{Blob: id, Offset: offset, Size: size, Append: isAppend})
	if err != nil {
		return nil, err
	}
	return resp.(*wire.AssignResp), nil
}

// abortAfter withdraws an assigned version after a mid-update failure so
// publication is not stalled, reclaims any pages the failed update had
// already stored (the abort guarantees no published tree will ever
// reference them — it cascades to every later in-flight version that
// could have border-referenced this one), and returns the original
// error.
func (c *Client) abortAfter(ctx context.Context, id wire.BlobID, v wire.Version, pws []core.PageWrite, cause error) error {
	if _, err := c.vm(ctx, &wire.AbortReq{Blob: id, Version: v}); err == nil {
		// Only reclaim when the abort is confirmed: if it did not land
		// (say the version already published after a duplicate-complete
		// race), the pages may be live.
		c.reclaimPages(ctx, pws)
	}
	return cause
}

// storePages splits data into pages, asks the provider manager for
// provider(s) per page, and stores every copy of every page in parallel
// (Algorithm 2 lines 4-9; R copies per page under the replication
// extension). The final page may be short when len(data) is not
// page-aligned.
func (c *Client) storePages(ctx context.Context, data []byte, ps uint64) ([]core.PageWrite, error) {
	n := int(pagesOf(uint64(len(data)), ps))
	reps := c.cfg.PageReplication
	resp, err := c.rpc.Call(ctx, c.cfg.ProviderManager,
		&wire.AllocateReq{N: uint32(n), Copies: uint32(reps)})
	if err != nil {
		return nil, fmt.Errorf("allocating %d providers: %w", n, err)
	}
	addrs := resp.(*wire.AllocateResp).Addrs
	if len(addrs) != n*reps {
		return nil, fmt.Errorf("allocated %d providers, want %d", len(addrs), n*reps)
	}
	pws := make([]core.PageWrite, n)
	for i := range pws {
		pws[i] = core.PageWrite{
			Page:      c.gen.Next(),
			Providers: addrs[i*reps : (i+1)*reps],
		}
	}
	// One task per (page, replica) pair: replicas of one page transfer in
	// parallel just like distinct pages.
	err = vclock.ParallelLimit(c.sched, n*reps, maxFanout, func(t int) error {
		i, r := t/reps, t%reps
		from := uint64(i) * ps
		to := from + ps
		if to > uint64(len(data)) {
			to = uint64(len(data))
		}
		addr := pws[i].Providers[r]
		if _, err := c.rpc.Call(ctx, addr, &wire.PutPageReq{Page: pws[i].Page, Data: data[from:to]}); err != nil {
			return fmt.Errorf("storing page %d copy %d on %s: %w", i, r, addr, err)
		}
		return nil
	})
	if err != nil {
		// Some transfers may have landed before the failure; their ids
		// die with this call, so reclaim whatever stuck.
		c.reclaimPages(ctx, pws)
		return nil, err
	}
	return pws, nil
}

// buildMetadata converts the assignment to page units, plans the new
// tree, resolves border versions against the published tree and stores
// the woven nodes (BUILD_META, Algorithm 4).
func (c *Client) buildMetadata(ctx context.Context, h *blobHandle, resp *wire.AssignResp,
	startPage uint64, pws []core.PageWrite) error {

	ps := h.pageSize
	u := core.Update{
		Version:            resp.Version,
		Pages:              core.Range{Start: startPage, Count: uint64(len(pws))},
		NewSizePages:       pagesOf(resp.NewSize, ps),
		Published:          resp.Published,
		PublishedSizePages: pagesOf(resp.PublishedSize, ps),
		InFlight:           make([]core.InFlight, 0, len(resp.InFlight)),
	}
	for _, inf := range resp.InFlight {
		first := inf.Offset / ps
		last := pagesOf(inf.Offset+inf.Size, ps)
		u.InFlight = append(u.InFlight, core.InFlight{
			Version: inf.Version,
			Pages:   core.Range{Start: first, Count: last - first},
		})
	}
	plan, err := core.PlanUpdate(u, pws)
	if err != nil {
		return err
	}
	resolved, err := core.ResolvePublished(ctx, h.store, u.Published, u.PublishedSizePages, plan.NeedPublished())
	if err != nil {
		return err
	}
	ids, nodes, err := plan.Finalize(resolved)
	if err != nil {
		return err
	}
	return h.store.PutNodes(ctx, ids, nodes)
}
