package main

import (
	"flag"
	"strings"
	"testing"

	"blobseer"
)

// TestFlagCount pins how many flags blobseer-cli has: the cluster's three
// addresses and -read-stats. One command is one operation, so the read
// path's tuning flags stay retired.
func TestFlagCount(t *testing.T) {
	n := 0
	flag.VisitAll(func(f *flag.Flag) {
		if !strings.HasPrefix(f.Name, "test.") {
			n++
		}
	})
	if n != 4 {
		t.Fatalf("blobseer-cli has %d flags, want 4", n)
	}
	for _, old := range []string{"page-cache-bytes", "hedge-delay", "coalesce-pages", "max-fanout"} {
		if flag.Lookup(old) != nil {
			t.Errorf("-%s is back", old)
		}
	}
}

// TestReadSpan: `read -offset N` with N past the snapshot's end used to
// compute size-N, which wraps, and panic in make.
func TestReadSpan(t *testing.T) {
	const size = 1000
	for _, tc := range []struct {
		name        string
		off, length uint64
		want        uint64
		outOfBounds bool
	}{
		{name: "whole snapshot", want: size},
		{name: "tail", off: 400, want: 600},
		{name: "inner range", off: 400, length: 100, want: 100},
		{name: "range ending at the end", off: 400, length: 600, want: 600},
		{name: "offset at the end", off: size, want: 0},
		{name: "offset past the end", off: size + 1, outOfBounds: true},
		{name: "huge offset", off: 1 << 63, outOfBounds: true},
		{name: "length past the end", off: 400, length: 601, outOfBounds: true},
		{name: "length that wraps off+length", off: 400, length: ^uint64(0) - 100, outOfBounds: true},
		{name: "length at the end", off: size, length: 1, outOfBounds: true},
	} {
		got, err := readSpan(7, size, tc.off, tc.length)
		if tc.outOfBounds {
			if !blobseer.IsOutOfBounds(err) {
				t.Errorf("%s: readSpan = %d, %v; want an out-of-bounds error", tc.name, got, err)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("%s: readSpan = %d, %v; want %d", tc.name, got, err, tc.want)
		}
	}
}
