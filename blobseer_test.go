package blobseer_test

import (
	"bytes"
	"context"
	"path/filepath"
	"testing"

	"blobseer"
)

func startCluster(t *testing.T, opts blobseer.ClusterOptions) *blobseer.Client {
	t.Helper()
	cl, err := blobseer.StartCluster(opts)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cl.Client()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close()
		cl.Close()
	})
	return c
}

func TestPublicAPIRoundTrip(t *testing.T) {
	c := startCluster(t, blobseer.ClusterOptions{})
	ctx := context.Background()

	blob, err := c.Create(ctx, blobseer.Options{PageSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("blobseer!"), 2000) // 18000 bytes, unaligned
	v, err := blob.Append(ctx, data)
	if err != nil {
		t.Fatal(err)
	}
	if err := blob.Sync(ctx, v); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := blob.Read(ctx, v, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
	if sz, err := blob.Size(ctx, v); err != nil || sz != uint64(len(data)) {
		t.Fatalf("Size = %d, %v", sz, err)
	}
	rv, rsz, err := blob.Recent(ctx)
	if err != nil || rv != v || rsz != uint64(len(data)) {
		t.Fatalf("Recent = v%d %d, %v", rv, rsz, err)
	}

	// Open by id from a second client.
	c2 := c // same cluster; a fresh handle suffices for the API check
	blob2, err := c2.Open(ctx, blob.ID())
	if err != nil {
		t.Fatal(err)
	}
	if blob2.ID() != blob.ID() {
		t.Fatal("Open returned a different blob")
	}
}

func TestPublicAPIErrors(t *testing.T) {
	c := startCluster(t, blobseer.ClusterOptions{})
	ctx := context.Background()
	if _, err := c.Open(ctx, 999); !blobseer.IsNotFound(err) {
		t.Fatalf("Open missing blob: %v", err)
	}
	blob, _ := c.Create(ctx, blobseer.Options{})
	if err := blob.Read(ctx, 5, make([]byte, 1), 0); !blobseer.IsNotPublished(err) {
		t.Fatalf("read unpublished: %v", err)
	}
	v, _ := blob.Append(ctx, []byte("x"))
	blob.Sync(ctx, v)
	if err := blob.Read(ctx, v, make([]byte, 2), 0); !blobseer.IsOutOfBounds(err) {
		t.Fatalf("read past end: %v", err)
	}
}

func TestPublicAPIDiskBackedCluster(t *testing.T) {
	c := startCluster(t, blobseer.ClusterOptions{
		DataProviders: 2,
		DiskDir:       filepath.Join(t.TempDir(), "pages"),
	})
	ctx := context.Background()
	blob, _ := c.Create(ctx, blobseer.Options{PageSize: 512})
	v, err := blob.Append(ctx, bytes.Repeat([]byte{7}, 1536))
	if err != nil {
		t.Fatal(err)
	}
	blob.Sync(ctx, v)
	got := make([]byte, 1536)
	if err := blob.Read(ctx, v, got, 0); err != nil {
		t.Fatal(err)
	}
	if got[0] != 7 || got[1535] != 7 {
		t.Fatal("disk-backed read mismatch")
	}
}

func TestDialValidation(t *testing.T) {
	if _, err := blobseer.Dial(blobseer.ClientOptions{}); err == nil {
		t.Fatal("Dial with no metadata providers accepted")
	}
}
