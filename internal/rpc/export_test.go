package rpc

import (
	"flag"
	"os"
	"testing"
)

// TestMain runs the package's tests with released frame buffers
// poisoned, so a use after release reads garbage every time instead of
// rarely. Benchmarks measure the unpoisoned path.
func TestMain(m *testing.M) {
	flag.Parse()
	if flag.Lookup("test.bench").Value.String() == "" {
		PoisonReleasedFrames()
	}
	os.Exit(m.Run())
}
