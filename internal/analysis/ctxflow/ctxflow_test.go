package ctxflow_test

import (
	"testing"

	"blobseer/internal/analysis/analysistest"
	"blobseer/internal/analysis/ctxflow"
)

// TestGolden runs the analyzer over the fixture packages: ctxflow holds
// one case per rule plus every escape hatch, ctxmain pins the
// package-main exemption (no wants at all).
func TestGolden(t *testing.T) {
	analysistest.Run(t, ctxflow.Analyzer, "testdata", "ctxflow", "ctxmain")
}
