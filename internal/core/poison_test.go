package core

import (
	"flag"
	"os"
	"testing"

	"blobseer/internal/bufpool"
)

// TestMain runs the package's tests with released objects poisoned: a
// recycled object read after its release, or released twice, fails
// every run instead of only when the pool happened to hand it out
// again. Benchmarks measure the unpoisoned path.
func TestMain(m *testing.M) {
	flag.Parse()
	if flag.Lookup("test.bench").Value.String() == "" {
		bufpool.PoisonReleased(true)
	}
	os.Exit(m.Run())
}
