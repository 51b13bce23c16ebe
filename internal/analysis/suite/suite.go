// Package suite registers the blobseer-vet analyzers. It exists apart
// from internal/analysis so analyzers (which import the framework) and
// the framework itself stay cycle-free.
package suite

import (
	"blobseer/internal/analysis"
	"blobseer/internal/analysis/ctxflow"
	"blobseer/internal/analysis/encdecpair"
	"blobseer/internal/analysis/goleak"
	"blobseer/internal/analysis/lockorder"
)

// Analyzers is the full blobseer-vet suite, in report order.
var Analyzers = []*analysis.Analyzer{
	lockorder.Analyzer,
	encdecpair.Analyzer,
	ctxflow.Analyzer,
	goleak.Analyzer,
}
