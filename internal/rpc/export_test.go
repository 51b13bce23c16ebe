package rpc

import (
	"flag"
	"os"
	"testing"

	"blobseer/internal/bufpool"
)

// TestMain runs the package's tests with released frame buffers
// poisoned, so a use after release reads garbage every time instead of
// rarely. Benchmarks measure the unpoisoned path.
func TestMain(m *testing.M) {
	flag.Parse()
	if flag.Lookup("test.bench").Value.String() == "" {
		bufpool.PoisonReleased(true)
	}
	os.Exit(m.Run())
}
