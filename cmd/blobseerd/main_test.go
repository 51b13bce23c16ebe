package main

import (
	"flag"
	"strings"
	"testing"
)

// TestFlagCount pins how many flags blobseerd has, so the next one is a
// deliberate bump here and not a habit: one role, one log, each setting
// said once. The retired role-prefixed spellings stay retired.
func TestFlagCount(t *testing.T) {
	n := 0
	flag.VisitAll(func(f *flag.Flag) {
		if !strings.HasPrefix(f.Name, "test.") {
			n++
		}
	})
	if n != 17 {
		t.Fatalf("blobseerd has %d flags, want 17", n)
	}
	if *debugAddr != "" {
		t.Fatalf("-debug-addr defaults to %q; the debug endpoints must be off unless asked for", *debugAddr)
	}
	if *logSync || !*walSync || *segmentBytes != 64<<20 || *snapshotEvery != 4096 || *compactRatio != 0.5 {
		t.Fatalf("log defaults changed: sync %v wal-sync %v segment-bytes %d snapshot-every %d compact-ratio %v",
			*logSync, *walSync, *segmentBytes, *snapshotEvery, *compactRatio)
	}
	for _, old := range []string{
		"page-sync", "meta-sync", "page-segment-bytes", "meta-segment-bytes", "wal-segment-bytes",
		"page-snapshot-every", "meta-snapshot-every", "checkpoint-every", "page-compact-ratio", "meta-compact-ratio",
	} {
		if flag.Lookup(old) != nil {
			t.Errorf("-%s is back", old)
		}
	}
}
