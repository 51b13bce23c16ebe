package blobseer_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"log"
	"maps"
	"math/rand"
	"slices"
	"sync"

	"blobseer"
)

const pictureHeader = 36 // magic, length, camera, contrast

// The paper's §2.2 usage scenario: a photo processing company stores
// every uploaded picture by APPENDing it to one huge blob from multiple
// sites concurrently, then analyses a recent snapshot map-reduce style —
// workers READ disjoint parts of the blob, extract each picture's camera
// model and contrast figure, and the aggregation computes the average
// contrast per camera type. One worker also overwrites a picture in place
// with an "enhanced" version (a WRITE), which creates a new snapshot
// without disturbing the analysis running on the old one.
func ExampleBlob_Write() {
	const uploadSites, uploadsPerSite, analysisWorkers = 4, 25, 8
	cl, err := blobseer.StartCluster(blobseer.ClusterOptions{DataProviders: 8, MetadataProviders: 8})
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

	blob, err := c.Create(ctx, blobseer.Options{PageSize: 16 << 10})
	if err != nil {
		log.Fatalf("create: %v", err)
	}

	// ---- Upload phase: sites append pictures concurrently. No site
	// coordinates with any other; the version manager orders the appends.
	var wg sync.WaitGroup
	for site := 0; site < uploadSites; site++ {
		wg.Add(1)
		go func(site int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(site)))
			var last blobseer.Version
			for i := 0; i < uploadsPerSite; i++ {
				v, err := blob.Append(ctx, makePicture(rng))
				if err != nil {
					log.Fatalf("site %d upload %d: %v", site, i, err)
				}
				last = v
			}
			if err := blob.Sync(ctx, last); err != nil {
				log.Fatalf("sync: %v", err)
			}
		}(site)
	}
	wg.Wait()

	// ---- Analysis phase: map-reduce over a recent snapshot.
	v, size, err := blob.Recent(ctx)
	if err != nil {
		log.Fatalf("recent: %v", err)
	}
	fmt.Printf("analysing snapshot %d: %d bytes of pictures\n", v, size)
	merged := analysePictures(ctx, blob, v, size, analysisWorkers)
	fmt.Println("average contrast quality per camera type:")
	for _, cam := range slices.Sorted(maps.Keys(merged)) {
		s := merged[cam]
		fmt.Printf("  %-16s %.3f  (%d pictures)\n", cam, s.sum/float64(s.n), s.n)
	}

	// ---- Enhancement: overwrite the first picture in place ("a complex
	// image processing was necessary ... overwriting the picture with its
	// processed version saves computation time", §2.2). The analysis
	// snapshot v is immutable; the enhancement lands in a new version.
	head := make([]byte, 8)
	if err := blob.Read(ctx, v, head, 0); err != nil {
		log.Fatalf("read header: %v", err)
	}
	firstLen := binary.LittleEndian.Uint32(head[4:8])
	enhanced := make([]byte, firstLen)
	if err := blob.Read(ctx, v, enhanced, 0); err != nil {
		log.Fatalf("read picture: %v", err)
	}
	for i := pictureHeader; i < len(enhanced); i++ {
		enhanced[i] ^= 0xFF // "sharpen"
	}
	ev, err := blob.Write(ctx, enhanced, 0)
	if err != nil {
		log.Fatalf("enhance: %v", err)
	}
	if err := blob.Sync(ctx, ev); err != nil {
		log.Fatalf("sync: %v", err)
	}
	fmt.Printf("enhanced first picture in snapshot %d; snapshot %d still serves the analysis\n", ev, v)
	// Output:
	// analysing snapshot 100: 811832 bytes of pictures
	// average contrast quality per camera type:
	//   CoolPix-5200     0.461  (18 pictures)
	//   D70s             0.393  (23 pictures)
	//   EOS-20D          0.532  (14 pictures)
	//   Lumix-DMC        0.548  (20 pictures)
	//   PowerShot-A95    0.440  (25 pictures)
	// enhanced first picture in snapshot 101; snapshot 100 still serves the analysis
}

// cameraStat sums one camera's contrast figures.
type cameraStat struct {
	sum float64
	n   int
}

// analysePictures aggregates the pictures of the first size bytes of
// snapshot v per camera, with workers reading disjoint ranges of the
// snapshot in parallel (the paper's map phase). Ranges split pictures,
// so each worker counts the pictures whose magic starts in its range,
// scanning forward from the first magic it finds, and reads up to
// pictureHeader-1 bytes past the range so that the header of its last
// picture is whole.
func analysePictures(ctx context.Context, blob *blobseer.Blob, v blobseer.Version, size uint64, workers int) map[string]cameraStat {
	partial := make([]map[string]cameraStat, workers)
	per := size / uint64(workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			from := uint64(w) * per
			to := from + per
			if w == workers-1 {
				to = size
			}
			buf := make([]byte, min(to+pictureHeader-1, size)-from)
			if err := blob.Read(ctx, v, buf, from); err != nil {
				log.Fatalf("worker %d read: %v", w, err)
			}
			partial[w] = map[string]cameraStat{}
			for off := 0; off < int(to-from) && off+pictureHeader <= len(buf); {
				if string(buf[off:off+4]) != "IMG0" {
					off++
					continue
				}
				total := int(binary.LittleEndian.Uint32(buf[off+4 : off+8]))
				camera := string(bytes.TrimRight(buf[off+8:off+32], "\x00"))
				s := partial[w][camera]
				s.sum += float64(binary.LittleEndian.Uint32(buf[off+32:off+36])) / 1e6
				s.n++
				partial[w][camera] = s
				off += total
			}
		}(w)
	}
	wg.Wait()

	// ---- Reduce phase: merge the per-camera sums.
	merged := map[string]cameraStat{}
	for _, m := range partial {
		for cam, s := range m {
			t := merged[cam]
			merged[cam] = cameraStat{t.sum + s.sum, t.n + s.n}
		}
	}
	return merged
}

// makePicture builds a synthetic picture: magic, length, camera, contrast.
func makePicture(rng *rand.Rand) []byte {
	cameras := []string{"Lumix-DMC", "PowerShot-A95", "CoolPix-5200", "EOS-20D", "D70s"}
	size := 4096 + rng.Intn(8192)
	b := make([]byte, size)
	copy(b[0:4], "IMG0")
	binary.LittleEndian.PutUint32(b[4:8], uint32(size))
	copy(b[8:32], cameras[rng.Intn(len(cameras))])
	binary.LittleEndian.PutUint32(b[32:36], uint32(rng.Float64()*1e6))
	rng.Read(b[36:])
	// Avoid accidental magics inside the noise.
	for i := 36; i+4 <= len(b); i++ {
		if string(b[i:i+4]) == "IMG0" {
			b[i] = 'X'
		}
	}
	return b
}
