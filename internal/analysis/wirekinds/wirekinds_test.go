package wirekinds_test

import (
	"testing"

	"blobseer/internal/analysis/analysistest"
	"blobseer/internal/analysis/wirekinds"
)

func TestWireKinds(t *testing.T) {
	analysistest.Run(t, wirekinds.Analyzer, "testdata", "a", "b", "c", "noreg")
}
