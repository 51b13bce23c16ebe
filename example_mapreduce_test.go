package blobseer_test

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"sync"

	"blobseer"
)

// A word-count map-reduce job over a BlobSeer blob, the workload class
// the paper positions blob storage under: "specialized abstractions like
// MapReduce [5] ... are implemented on top of huge object storage and
// target high performance by optimizing the parallel execution of the
// computation. This leads to heavy access concurrency to the blobs" (§1).
//
// The job reads one immutable snapshot while producers keep appending —
// versioning is what makes the computation consistent without stopping
// ingestion — and APPENDs its result to an output blob, so successive job
// runs form their own versioned history.
func ExampleBlob_NewReader() {
	ctx := context.Background()
	cl, err := blobseer.StartCluster(blobseer.ClusterOptions{DataProviders: 8, MetadataProviders: 8})
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()
	c, err := cl.Client()
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	input, err := c.Create(ctx, blobseer.Options{PageSize: 4 << 10})
	if err != nil {
		log.Fatal(err)
	}

	// Phase 1: three "sites" concurrently append log lines, like the
	// paper's multi-site ingestion. Each APPEND is atomic, so concurrent
	// sites interleave at append granularity — every append must
	// therefore hold whole records, which is why each site flushes on a
	// line boundary (an AppendWriter with a byte-sized chunk would tear
	// lines across two sites' appends).
	words := []string{"grid", "blob", "page", "tree", "version", "append",
		"read", "write", "snapshot", "branch"}
	var wg sync.WaitGroup
	for site := 0; site < 3; site++ {
		wg.Add(1)
		go func(site int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(site) + 1))
			var buf []byte
			var last blobseer.Version
			for line := 0; line < 2000; line++ {
				for k := 0; k < 8; k++ {
					buf = append(buf, words[rng.Intn(len(words))]...)
					buf = append(buf, ' ')
				}
				buf = append(buf, '\n')
				if len(buf) >= 8<<10 || line == 1999 { // whole lines only
					v, err := input.Append(ctx, buf)
					if err != nil {
						log.Fatal(err)
					}
					last, buf = v, buf[:0]
				}
			}
			if err := input.Sync(ctx, last); err != nil {
				log.Fatal(err)
			}
		}(site)
	}
	wg.Wait()

	// Phase 2: run word count over the latest published snapshot.
	v, size, err := input.Recent(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("map-reduce over snapshot %d (%d bytes)\n", v, size)

	counts, err := mapReduce(ctx, input, v, 8, func(line string, emit func(string, int)) {
		for _, w := range strings.Fields(line) {
			emit(w, 1)
		}
	})
	if err != nil {
		log.Fatal(err)
	}

	// Phase 3: append the result to an output blob; each job run is one
	// snapshot of the output, so results are versioned too.
	output, err := c.Create(ctx, blobseer.Options{PageSize: 4 << 10})
	if err != nil {
		log.Fatal(err)
	}
	keys := slices.Sorted(maps.Keys(counts))
	var report strings.Builder
	var total int
	for _, k := range keys {
		fmt.Fprintf(&report, "%s\t%d\n", k, counts[k])
		total += counts[k]
	}
	ov, err := output.Append(ctx, []byte(report.String()))
	if err != nil {
		log.Fatal(err)
	}
	if err := output.Sync(ctx, ov); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%d distinct words, %d total; result stored as output snapshot %d\n",
		len(keys), total, ov)
	for _, k := range keys[:min(5, len(keys))] {
		fmt.Printf("  %-10s %d\n", k, counts[k])
	}
	// Output:
	// map-reduce over snapshot 39 (303264 bytes)
	// 10 distinct words, 48000 total; result stored as output snapshot 1
	//   append     4823
	//   blob       4785
	//   branch     4717
	//   grid       4799
	//   page       4842
}

// mapReduce executes a line-oriented map-reduce job over snapshot v of
// the blob with the given number of map workers, and reduces each key by
// summing the values mapf emitted for it. Each worker streams a
// disjoint byte range [start, end) through a SnapshotReader and maps the
// lines that start in it. A worker after the first seeks to start-1 and
// discards through the first newline, so it begins at the first line
// starting at or after start; it stops at the first line starting at or
// after end, which the next worker owns (Hadoop's LineRecordReader rule).
func mapReduce(ctx context.Context, blob *blobseer.Blob, v blobseer.Version, workers int,
	mapf func(line string, emit func(k string, v int))) (map[string]int, error) {

	size, err := blob.Size(ctx, v)
	if err != nil {
		return nil, err
	}
	per := size / uint64(workers)
	if per == 0 {
		per, workers = size, 1
	}

	shards := make([]map[string]int, workers)
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			shards[w] = make(map[string]int)
			start := uint64(w) * per
			end := start + per
			if w == workers-1 {
				end = size
			}
			r, err := blob.NewReader(ctx, v)
			if err != nil {
				errs <- err
				return
			}
			pos := start
			if w > 0 {
				pos--
			}
			if _, err := r.Seek(int64(pos), io.SeekStart); err != nil {
				errs <- err
				return
			}
			sc := bufio.NewScanner(r)
			sc.Buffer(make([]byte, 64<<10), 1<<20)
			// Discard the line the byte before start belongs to: the
			// previous worker owns it (workers after the first one only).
			if w > 0 && sc.Scan() {
				pos += uint64(len(sc.Bytes())) + 1
			}
			for pos < end && sc.Scan() {
				line := sc.Text()
				pos += uint64(len(line)) + 1
				mapf(line, func(k string, val int) {
					shards[w][k] += val
				})
			}
			errs <- sc.Err()
		}()
	}
	for range workers {
		err = errors.Join(err, <-errs)
	}
	if err != nil {
		return nil, err
	}

	// Shuffle and reduce: sum each key's values over the shards.
	out := make(map[string]int)
	for _, sh := range shards {
		for k, n := range sh {
			out[k] += n
		}
	}
	return out, nil
}
