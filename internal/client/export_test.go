package client

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sync/atomic"
	"testing"

	"blobseer/internal/bufpool"
	"blobseer/internal/core"
	"blobseer/internal/wire"
)

// TestMain runs the package's tests with released buffers poisoned, so
// a page the cache recycled while a reader was still copying out of it
// reads garbage every time instead of rarely, and with every page
// recycle counted. Benchmarks measure the unpoisoned path.
func TestMain(m *testing.M) {
	flag.Parse()
	if flag.Lookup("test.bench").Value.String() == "" {
		bufpool.PoisonReleased()
	}
	put := putPage
	putPage = func(b []byte) {
		pagesRecycled.Add(1)
		put(b)
	}
	os.Exit(m.Run())
}

var pagesRecycled atomic.Int64

// PagesRecycled reports how many page buffers the package has handed
// back to the pool through putPage: the page cache's evictions and last
// releases, and the losing or invalid answers of a fetch.
func PagesRecycled() int64 { return pagesRecycled.Load() }

// AssignOnly registers an append with the version manager and walks
// away — test-only, to manufacture an abandoned in-flight version.
func (c *Client) AssignOnly(ctx context.Context, id wire.BlobID, size uint64) (wire.Version, error) {
	resp, err := c.assign(ctx, id, 0, size, true)
	if err != nil {
		return 0, err
	}
	return resp.Version, nil
}

// AbortVersion withdraws an assigned version — test-only.
func (c *Client) AbortVersion(ctx context.Context, id wire.BlobID, v wire.Version) error {
	_, err := c.vm(ctx, &wire.AbortReq{Blob: id, Version: v})
	return err
}

// SetGCCrashHook installs the test-only CollectGarbage fault injector:
// fn runs once per delete batch and a non-nil return drops that batch
// exactly as a collector crash at that point would.
func (c *Client) SetGCCrashHook(fn func(chunk int) error) { c.gcCrash = fn }

// GCVictims runs CollectGarbage's diff and deletes nothing: the pages
// and tree nodes a sweep would delete now.
func (c *Client) GCVictims(ctx context.Context, id wire.BlobID) ([]wire.PageID, []core.NodeID, error) {
	pws, nodes, err := c.gcVictims(ctx, id, new(GCStats))
	pages := make([]wire.PageID, len(pws))
	for i, pw := range pws {
		pages[i] = pw.Page
	}
	return pages, nodes, err
}

// GCPlan returns the version manager's GC plan for the blob and the
// blob's page size.
func (c *Client) GCPlan(ctx context.Context, id wire.BlobID) (*wire.GCInfoResp, uint64, error) {
	h, err := c.handle(ctx, id)
	if err != nil {
		return nil, 0, err
	}
	resp, err := c.vm(ctx, &wire.GCInfoReq{Blob: id})
	if err != nil {
		return nil, 0, err
	}
	return resp.(*wire.GCInfoResp), h.pageSize, nil
}

// TryGetNodes fetches tree nodes of the blob's lineage from the
// metadata replicas, reporting the absent ones.
func (c *Client) TryGetNodes(ctx context.Context, id wire.BlobID, ids []core.NodeID) ([]core.Node, []bool, error) {
	h, err := c.handle(ctx, id)
	if err != nil {
		return nil, nil, err
	}
	return h.store.TryGetNodes(ctx, ids)
}

// PageFlights reports how many single-flight fetches are unresolved.
// Test-only: every read must leave zero behind, success or failure —
// a leaked flight blocks all later readers of its page forever.
func (c *Client) PageFlights() int {
	if c.pages == nil {
		return 0
	}
	c.pages.pageMu.Lock()
	defer c.pages.pageMu.Unlock()
	return len(c.pages.flights)
}

// PageEntries is a test's record of page-cache entries: every entry
// that was resident at some Observe.
type PageEntries map[*pageEntry]struct{}

// Observe adds every entry now resident in c's page cache to seen.
func (c *Client) Observe(seen PageEntries) {
	if c.pages == nil {
		return
	}
	c.pages.pageMu.Lock()
	defer c.pages.pageMu.Unlock()
	for _, seg := range []*segment{&c.pages.probation, &c.pages.protected} {
		for el := seg.ll.Front(); el != nil; el = el.Next() {
			seen[el.Value.(*pageEntry)] = struct{}{}
		}
	}
}

// PageSegments reports how many pages the cache holds in probation
// (read once since fetched or demoted) and in protected (hit since).
func (c *Client) PageSegments() (probation, protected int) {
	if c.pages == nil {
		return 0, 0
	}
	c.pages.pageMu.Lock()
	defer c.pages.pageMu.Unlock()
	return c.pages.probation.ll.Len(), c.pages.protected.ll.Len()
}

// CheckPageRefs checks the page cache's accounting once every read has
// returned. Each resident entry holds exactly the cache's own reference
// and its buffer, and each entry in seen that was evicted holds none and
// has given its buffer back. Each segment's byte account matches its
// entries, whose hot flag names the segment, the entry map holds both
// segments, protected stays within its three quarters and the two
// together within the budget.
func (c *Client) CheckPageRefs(seen PageEntries) error {
	if c.pages == nil {
		return nil
	}
	c.Observe(seen)
	pc := c.pages
	pc.pageMu.Lock()
	defer pc.pageMu.Unlock()
	for _, s := range []struct {
		name string
		seg  *segment
		hot  bool
	}{{"probation", &pc.probation, false}, {"protected", &pc.protected, true}} {
		var bytes int64
		for el := s.seg.ll.Front(); el != nil; el = el.Next() {
			ent := el.Value.(*pageEntry)
			if ent.refs != 1 || ent.data == nil {
				return fmt.Errorf("resident page %v: refs %d, buffer held %v; want 1, true",
					ent.id, ent.refs, ent.data != nil)
			}
			if ent.hot != s.hot || pc.entries[ent.id] != el {
				return fmt.Errorf("page %v in %s: hot %v, indexed %v", ent.id, s.name, ent.hot, pc.entries[ent.id] == el)
			}
			bytes += pageBytes(ent.data)
		}
		if bytes != s.seg.bytes {
			return fmt.Errorf("%s accounts %d bytes, its entries hold %d", s.name, s.seg.bytes, bytes)
		}
	}
	if n := pc.probation.ll.Len() + pc.protected.ll.Len(); len(pc.entries) != n {
		return fmt.Errorf("cache indexes %d entries, its segments hold %d", len(pc.entries), n)
	}
	if pc.protected.bytes > pc.capBytes-pc.probCap || pc.probation.bytes+pc.protected.bytes > pc.capBytes {
		return fmt.Errorf("probation %d + protected %d bytes past a budget of %d (protected's share %d)",
			pc.probation.bytes, pc.protected.bytes, pc.capBytes, pc.capBytes-pc.probCap)
	}
	for ent := range seen {
		if el, ok := pc.entries[ent.id]; ok && el.Value.(*pageEntry) == ent {
			continue
		}
		if ent.refs != 0 || ent.data != nil {
			return fmt.Errorf("evicted page %v: refs %d, buffer held %v; want 0, false",
				ent.id, ent.refs, ent.data != nil)
		}
	}
	return nil
}
