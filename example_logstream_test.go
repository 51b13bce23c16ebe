package blobseer_test

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"blobseer"
)

// BlobSeer as the storage layer for continuously growing data streams
// ("data streams generated and updated by continuously running
// applications", §1): several producer sites append log batches to one
// blob concurrently while a consumer tails the blob by polling
// GET_RECENT and reading only the bytes it has not seen yet — snapshot
// isolation guarantees it never observes a torn batch.
func ExampleBlob_Recent() {
	const producers, batchesPerSite, recordsPerBatch = 5, 20, 50
	cl, err := blobseer.StartCluster(blobseer.ClusterOptions{DataProviders: 6, MetadataProviders: 6})
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

	blob, err := c.Create(ctx, blobseer.Options{PageSize: 4 << 10})
	if err != nil {
		log.Fatalf("create: %v", err)
	}

	// Producers append concurrently; each batch is one atomic APPEND.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for b := 0; b < batchesPerSite; b++ {
				var buf bytes.Buffer
				for r := 0; r < recordsPerBatch; r++ {
					fmt.Fprintf(&buf, "site=%d batch=%d rec=%d msg=all-systems-nominal\n", p, b, r)
				}
				if _, err := blob.Append(ctx, buf.Bytes()); err != nil {
					log.Fatalf("producer %d: %v", p, err)
				}
			}
		}(p)
	}
	go func() {
		wg.Wait()
		close(stop)
	}()

	// The consumer tails the blob: poll GET_RECENT, read the delta.
	var seen uint64
	var lines int
	for done := false; !done; {
		select {
		case <-stop:
			done = true // drain once more below
		case <-time.After(10 * time.Millisecond):
		}
		v, size, err := blob.Recent(ctx)
		if err != nil {
			log.Fatalf("recent: %v", err)
		}
		if size == seen {
			continue
		}
		delta := make([]byte, size-seen)
		if err := blob.Read(ctx, v, delta, seen); err != nil {
			log.Fatalf("tail read: %v", err)
		}
		// Every snapshot ends on a batch boundary.
		if !bytes.HasSuffix(delta, []byte{'\n'}) {
			log.Fatalf("torn record observed in snapshot %d: %q", v, delta[bytes.LastIndexByte(delta, '\n')+1:])
		}
		seen = size
		lines += bytes.Count(delta, []byte{'\n'})
	}
	want := producers * batchesPerSite * recordsPerBatch
	fmt.Printf("consumer tailed %d log records (%d bytes) from %d concurrent producers\n",
		lines, seen, producers)
	if lines != want {
		log.Fatalf("lost records: got %d, want %d", lines, want)
	}
	fmt.Println("no torn or lost records: appends are atomic and totally ordered")
	// Output:
	// consumer tailed 5000 log records (231500 bytes) from 5 concurrent producers
	// no torn or lost records: appends are atomic and totally ordered
}
