package blobseer_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"blobseer"
)

// TestExampleSplitsCountEveryRecordOnce runs the input splits of
// ExampleBlob_NewReader (lines) and ExampleBlob_Write (pictures) at every
// worker count from 1 to 64 over one fixed layout, and requires each to
// count every record exactly once: a line that starts on a split
// boundary, or a picture whose header straddles one, must be neither
// lost nor counted twice.
func TestExampleSplitsCountEveryRecordOnce(t *testing.T) {
	c := startCluster(t, blobseer.ClusterOptions{})
	ctx := context.Background()
	store := func(data []byte) (*blobseer.Blob, blobseer.Version) {
		blob, err := c.Create(ctx, blobseer.Options{PageSize: 4 << 10})
		if err != nil {
			t.Fatal(err)
		}
		v, err := blob.Append(ctx, data)
		if err == nil {
			err = blob.Sync(ctx, v)
		}
		if err != nil {
			t.Fatal(err)
		}
		return blob, v
	}

	// 2000 distinct lines of 1–8 words, and 100 pictures.
	rng := rand.New(rand.NewSource(1))
	var text []byte
	for i := 0; i < 2000; i++ {
		text = fmt.Appendf(text, "line%d", i)
		for k := rng.Intn(8); k > 0; k-- {
			text = append(text, " "+strings.Repeat("w", 1+rng.Intn(9))...)
		}
		text = append(text, '\n')
	}
	textBlob, tv := store(text)
	rng = rand.New(rand.NewSource(1))
	var pics []byte
	want := map[string]int{} // pictures per camera
	for i := 0; i < 100; i++ {
		pic := makePicture(rng)
		want[string(bytes.TrimRight(pic[8:32], "\x00"))]++
		pics = append(pics, pic...)
	}
	picBlob, pv := store(pics)

	for workers := 1; workers <= 64; workers++ {
		counts, err := mapReduce(ctx, textBlob, tv, workers,
			func(line string, emit func(string, int)) { emit(line, 1) })
		if err != nil {
			t.Fatal(err)
		}
		for line, n := range counts {
			if n != 1 {
				t.Errorf("lines, %d workers: %q counted %d times", workers, line, n)
			}
		}
		if len(counts) != 2000 {
			t.Errorf("lines, %d workers: %d of 2000 counted", workers, len(counts))
		}

		got := analysePictures(ctx, picBlob, pv, uint64(len(pics)), workers)
		for cam, n := range want {
			if got[cam].n != n {
				t.Errorf("pictures, %d workers: %d from %s counted, want %d", workers, got[cam].n, cam, n)
			}
		}
		if len(got) != len(want) {
			t.Errorf("pictures, %d workers: %d cameras, want %d", workers, len(got), len(want))
		}
	}
}
