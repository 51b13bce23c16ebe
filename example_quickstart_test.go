package blobseer_test

import (
	"bytes"
	"context"
	"fmt"
	"log"

	"blobseer"
)

// The BlobSeer basics on an embedded cluster: create a blob, append and
// overwrite data, read back any snapshot version, and observe that
// history is kept cheaply.
func ExampleStartCluster() {
	// An embedded cluster: version manager, provider manager, 4 data
	// providers and 4 metadata providers in this process.
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

	// Create a blob with 4 KiB pages.
	blob, err := c.Create(ctx, blobseer.Options{PageSize: 4 << 10})
	if err != nil {
		log.Fatalf("create: %v", err)
	}
	fmt.Printf("created %v\n", blob.ID())

	// APPEND produces snapshot 1.
	v1, err := blob.Append(ctx, bytes.Repeat([]byte("alpha-"), 4096))
	if err != nil {
		log.Fatalf("append: %v", err)
	}
	if err := blob.Sync(ctx, v1); err != nil { // wait until published
		log.Fatalf("sync: %v", err)
	}
	size1, _ := blob.Size(ctx, v1)
	fmt.Printf("snapshot %d: %d bytes\n", v1, size1)

	// WRITE over the middle produces snapshot 2; snapshot 1 is untouched.
	patch := bytes.Repeat([]byte("BETA##"), 1024)
	v2, err := blob.Write(ctx, patch, 8192)
	if err != nil {
		log.Fatalf("write: %v", err)
	}
	if err := blob.Sync(ctx, v2); err != nil {
		log.Fatalf("sync: %v", err)
	}

	// Read the same range from both snapshots.
	old, cur := make([]byte, 12), make([]byte, 12)
	if err := blob.Read(ctx, v1, old, 8192); err != nil {
		log.Fatalf("read v1: %v", err)
	}
	if err := blob.Read(ctx, v2, cur, 8192); err != nil {
		log.Fatalf("read v2: %v", err)
	}
	fmt.Printf("offset 8192 in snapshot %d: %q\n", v1, old)
	fmt.Printf("offset 8192 in snapshot %d: %q\n", v2, cur)

	// GET_RECENT names the latest published snapshot for new readers.
	recent, size, _ := blob.Recent(ctx)
	fmt.Printf("recent snapshot: %d (%d bytes)\n", recent, size)
	// Output:
	// created blob-1
	// snapshot 1: 24576 bytes
	// offset 8192 in snapshot 1: "pha-alpha-al"
	// offset 8192 in snapshot 2: "BETA##BETA##"
	// recent snapshot: 2 (24576 bytes)
}
