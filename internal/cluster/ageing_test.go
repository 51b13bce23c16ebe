package cluster

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"blobseer/internal/pagestore"
	"blobseer/internal/transport"
	"blobseer/internal/vclock"
)

// TestAgeingIsFlat is ROADMAP item 5(b)'s exit bar at cluster scale: a
// blob aged through cycles of overwriting a quarter of it, Expire down
// to the newest version, GC, a Compact of every page store and
// CompactMetadata costs the same on disk in every cycle. Nothing in the
// stores seals a segment by size (the 64 MB default dwarfs the blob),
// so what a cycle leaves behind is reclaimed only because the explicit
// compactions seal the tails they rewrite. Every cycle also reads the
// retained version back whole against a model of the blob.
func TestAgeingIsFlat(t *testing.T) {
	const (
		ps, pages = 4 << 10, 64 // a 256 KiB blob
		burnIn    = 2           // cycles before the first measured one
		cycles    = burnIn + 10
		// Tolerances against the first measured cycle. A sealing Compact
		// leaves one more segment file per store, a 16-byte header once it
		// is rewritten empty: ≈ 0.25 B per live key per cycle here, which
		// reaping empty segments would take off (ROADMAP 5). Without the
		// seal the page logs grow by the quarter of the blob each cycle
		// overwrites, and the metadata logs by ≈ 100 B per key.
		pageTol, metaTol = 0.01, 0.10
	)
	dir := t.TempDir()
	net := transport.NewInproc()
	defer net.Close()
	cl, err := StartInproc(net, vclock.NewReal(), Config{
		DataProviders: 2,
		MetaProviders: 2,
		PageDir:       dir,
		MetaLogDir:    dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	c, err := cl.NewClient("")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	id, err := c.Create(ctx, ps)
	if err != nil {
		t.Fatal(err)
	}
	model := make([]byte, ps*pages)
	for i := range model {
		model[i] = byte(i * 7)
	}
	v, err := c.Append(ctx, id, model)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(1))
	got := make([]byte, len(model))
	var firstPage, firstMeta float64
	for cycle := 0; cycle < cycles; cycle++ {
		for w := 0; w < pages/4; w++ {
			off := rng.Intn(pages) * ps
			page := model[off : off+ps]
			for i := range page {
				page[i] = byte(cycle*31+w) ^ byte(i)
			}
			if v, err = c.Write(ctx, id, page, uint64(off)); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Sync(ctx, id, v); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.ExpireVersions(ctx, id, v-1); err != nil {
			t.Fatal(err)
		}
		if _, err := c.CollectGarbage(ctx, id); err != nil {
			t.Fatal(err)
		}
		var pageBytes int64
		for _, p := range cl.Providers {
			d := p.Store().(*pagestore.Disk)
			if err := d.Compact(); err != nil {
				t.Fatal(err)
			}
			pageBytes += d.LogBytes()
		}
		if err := cl.CompactMetadata(); err != nil {
			t.Fatal(err)
		}
		if err := c.Read(ctx, id, v, got, 0); err != nil || !bytes.Equal(got, model) {
			t.Fatalf("cycle %d: the retained version v%d does not read back: %v", cycle, v, err)
		}
		if err := c.Read(ctx, id, v-1, got[:ps], 0); err == nil {
			t.Fatalf("cycle %d: expired v%d still reads", cycle, v-1)
		}

		keys, _ := cl.MetaStats()
		pageRatio := float64(pageBytes) / float64(len(model))
		metaPerKey := float64(cl.MetaLogBytes()) / float64(keys)
		t.Logf("cycle %2d: page logs %.4f x the blob, metadata logs %.1f B per live key (%d keys)",
			cycle, pageRatio, metaPerKey, keys)
		switch {
		case cycle < burnIn:
		case cycle == burnIn:
			firstPage, firstMeta = pageRatio, metaPerKey
		case pageRatio > firstPage*(1+pageTol) || metaPerKey > firstMeta*(1+metaTol):
			t.Fatalf("cycle %d: on-disk cost grew with age: page logs %.4f (first measured %.4f, +%.0f%% allowed), "+
				"metadata %.1f B per key (first measured %.1f, +%.0f%% allowed)",
				cycle, pageRatio, firstPage, 100*pageTol, metaPerKey, firstMeta, 100*metaTol)
		}
	}
}
