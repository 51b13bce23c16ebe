package client

import (
	"context"
	"flag"
	"fmt"
	"os"
	"testing"

	"blobseer/internal/bufpool"
	"blobseer/internal/wire"
)

// TestMain runs the package's tests with released buffers poisoned, so
// a page the cache recycled while a reader was still copying out of it
// reads garbage every time instead of rarely. Benchmarks measure the
// unpoisoned path.
func TestMain(m *testing.M) {
	flag.Parse()
	if flag.Lookup("test.bench").Value.String() == "" {
		bufpool.PoisonReleased()
	}
	os.Exit(m.Run())
}

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
	for el := c.pages.ll.Front(); el != nil; el = el.Next() {
		seen[el.Value.(*pageEntry)] = struct{}{}
	}
}

// CheckPageRefs checks the page cache's reference accounting once every
// read has returned: each resident entry holds exactly the cache's own
// reference and its buffer, and each entry in seen that was evicted
// holds none and has given its buffer back. It also checks the byte
// account against the resident entries.
func (c *Client) CheckPageRefs(seen PageEntries) error {
	if c.pages == nil {
		return nil
	}
	c.Observe(seen)
	pc := c.pages
	pc.pageMu.Lock()
	defer pc.pageMu.Unlock()
	var bytes int64
	for el := pc.ll.Front(); el != nil; el = el.Next() {
		ent := el.Value.(*pageEntry)
		if ent.refs != 1 || ent.data == nil {
			return fmt.Errorf("resident page %v: refs %d, buffer held %v; want 1, true",
				ent.id, ent.refs, ent.data != nil)
		}
		bytes += pageBytes(ent.data)
	}
	if bytes != pc.bytes || len(pc.entries) != pc.ll.Len() {
		return fmt.Errorf("cache accounts %d bytes in %d entries, resident entries hold %d bytes in %d",
			pc.bytes, len(pc.entries), bytes, pc.ll.Len())
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
