package pagestore

import (
	"flag"
	"os"
	"testing"

	"blobseer/internal/bufpool"
)

// TestMain runs the package's tests with released buffers poisoned, so
// a page read after its Release — or a stored page that a Release
// recycled — is garbage every time instead of rarely. Benchmarks
// measure the unpoisoned path.
func TestMain(m *testing.M) {
	flag.Parse()
	if flag.Lookup("test.bench").Value.String() == "" {
		bufpool.PoisonReleased(true)
	}
	os.Exit(m.Run())
}
