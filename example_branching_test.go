package blobseer_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"log"
	"math"
	"math/rand"
	"slices"

	"blobseer"
)

const branchPageSize = 8 << 10

// The paper's cheap BRANCH primitive (§2.1): "the same computation may
// proceed independently on different versions of the blob ... very
// useful for exploring alternative data processing algorithms starting
// from the same blob version."
//
// A dataset of samples is stored once; two alternative normalization
// pipelines each get their own branch and rewrite the data in place,
// and the original stays pristine — without any copy of the dataset
// ever being made.
func ExampleBlob_Branch() {
	const samples = 1 << 15 // 32768 float64 samples
	cl, err := blobseer.StartCluster(blobseer.ClusterOptions{})
	if err != nil {
		log.Fatalf("start cluster: %v", err)
	}
	defer cl.Close()
	c, err := cl.Client()
	if err != nil {
		log.Fatalf("client: %v", err)
	}
	defer c.Close()
	ctx := context.Background()

	// Store the raw dataset.
	raw, err := c.Create(ctx, blobseer.Options{PageSize: branchPageSize})
	if err != nil {
		log.Fatalf("create: %v", err)
	}
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, samples*8)
	for i := 0; i < samples; i++ {
		binary.LittleEndian.PutUint64(data[i*8:], math.Float64bits(rng.NormFloat64()*10+50))
	}
	base, err := raw.Append(ctx, data)
	if err != nil {
		log.Fatalf("append: %v", err)
	}
	if err := raw.Sync(ctx, base); err != nil {
		log.Fatalf("sync: %v", err)
	}
	fmt.Printf("dataset stored: snapshot %d, %d samples, mean=%.2f\n",
		base, samples, meanOf(ctx, raw, base))

	// Two alternative pipelines, each on its own branch. Branching is a
	// metadata-only operation: no sample is copied.
	minmax, err := raw.Branch(ctx, base)
	if err != nil {
		log.Fatalf("branch: %v", err)
	}
	zscore, err := raw.Branch(ctx, base)
	if err != nil {
		log.Fatalf("branch: %v", err)
	}

	// Statistics of the dataset both pipelines start from.
	xs := samplesOf(ctx, raw, base)
	lo, hi, mean, sumSq := slices.Min(xs), slices.Max(xs), meanOf(ctx, raw, base), 0.0
	for _, x := range xs {
		sumSq += x * x
	}
	std := math.Sqrt(sumSq/float64(len(xs)) - mean*mean)

	// Pipeline A: min-max scaling to [0,1], chunk by chunk (each chunk
	// rewrite is one WRITE producing one version on the branch).
	vA := transform(ctx, minmax, func(x float64) float64 { return (x - lo) / (hi - lo) })
	// Pipeline B: z-score standardization.
	vB := transform(ctx, zscore, func(x float64) float64 { return (x - mean) / std })

	fmt.Printf("pipeline A (min-max) finished at version %d: mean=%.3f\n", vA, meanOf(ctx, minmax, vA))
	fmt.Printf("pipeline B (z-score) finished at version %d: mean=%.3f\n", vB, meanOf(ctx, zscore, vB))
	fmt.Printf("original is untouched:                      mean=%.2f\n", meanOf(ctx, raw, base))
	// Output:
	// dataset stored: snapshot 1, 32768 samples, mean=50.03
	// pipeline A (min-max) finished at version 2: mean=0.475
	// pipeline B (z-score) finished at version 2: mean=-0.000
	// original is untouched:                      mean=50.03
}

// transform rewrites every sample of the blob's recent snapshot in place
// with fn, one page-aligned WRITE per chunk.
func transform(ctx context.Context, blob *blobseer.Blob, fn func(x float64) float64) blobseer.Version {
	v, _, err := blob.Recent(ctx)
	if err != nil {
		log.Fatalf("recent: %v", err)
	}
	xs := samplesOf(ctx, blob, v)
	const chunk = 64 * branchPageSize / 8 // samples
	var last blobseer.Version
	for off := 0; off < len(xs); off += chunk {
		part := xs[off:min(off+chunk, len(xs))]
		out := make([]byte, 8*len(part))
		for i, x := range part {
			binary.LittleEndian.PutUint64(out[i*8:], math.Float64bits(fn(x)))
		}
		last, err = blob.Write(ctx, out, uint64(8*off))
		if err != nil {
			log.Fatalf("transform write: %v", err)
		}
	}
	if err := blob.Sync(ctx, last); err != nil {
		log.Fatalf("sync: %v", err)
	}
	return last
}

// meanOf reads a snapshot and averages its samples.
func meanOf(ctx context.Context, blob *blobseer.Blob, v blobseer.Version) float64 {
	xs := samplesOf(ctx, blob, v)
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// samplesOf reads snapshot v of the blob as float64 samples.
func samplesOf(ctx context.Context, blob *blobseer.Blob, v blobseer.Version) []float64 {
	size, err := blob.Size(ctx, v)
	if err != nil {
		log.Fatalf("size: %v", err)
	}
	buf := make([]byte, size)
	if err := blob.Read(ctx, v, buf, 0); err != nil {
		log.Fatalf("read: %v", err)
	}
	xs := make([]float64, size/8)
	for i := range xs {
		xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[i*8:]))
	}
	return xs
}
