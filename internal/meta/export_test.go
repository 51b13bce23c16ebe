package meta

import (
	"flag"
	"os"
	"testing"

	"blobseer/internal/bufpool"
)

// TestMain runs the package's tests with released buffers poisoned, so
// a key or node encoding that PutNodes handed back to the pool before
// its requests were framed is garbage on the wire every time instead of
// only when the buffer happened to be reused. Benchmarks measure the
// unpoisoned path.
func TestMain(m *testing.M) {
	flag.Parse()
	if flag.Lookup("test.bench").Value.String() == "" {
		bufpool.PoisonReleased(true)
	}
	os.Exit(m.Run())
}
