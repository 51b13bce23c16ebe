package blast

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"blobseer"
)

// Workload is one fixed set of inputs the benchmark runs.
type Workload struct {
	Name string
	// Why says what the workload stresses and what it leaves alone.
	Why string
	// chunk is the granularity of verification: the smallest unit the
	// workload writes.
	chunk int
	// samples bounds the latency samples one client records per
	// operation type, so the slices are sized once.
	samples func(h *harness) int
	run     func(h *harness) error
}

// Workloads lists the benchmark's workloads in running order.
var Workloads = []Workload{
	{
		Name: "append_shared",
		Why: "2 clients append 1 MiB chunks to one shared blob, Sync after each, on a fresh cluster every round: " +
			"the write data path (Fig. 2a, appenders ordered by the version manager); the read path does nothing",
		chunk:   payloadBytes,
		samples: func(h *harness) int { return appendRounds(h) * appendPerClient(h) },
		run:     appendShared,
	},
	{
		Name: "scan_cold",
		Why: "fresh clients with cold caches scan halves of a blob 16x the page cache in 1 MiB reads: " +
			"the read data path (Fig. 2b); the version manager sees one call per client, the write path nothing",
		chunk:   payloadBytes,
		samples: func(h *harness) int { return scanRounds(h) * scanBlobMiB(h) / h.clients },
		run:     scanCold,
	},
	{
		Name: "small_rw",
		Why: "1-page writes and reads at zipf offsets of a 4 KiB-page blob whose hot set fits the page cache: " +
			"payload is negligible, so the control path (version manager, allocation, DHT, per-RPC cost) is all",
		chunk:   smallPage,
		samples: func(h *harness) int { return smallRounds(h) * smallOps(h) / 2 },
		run:     smallRW,
	},
	{
		Name: "aged_churn",
		Why: "cycles of 256 KiB overwrites of 25 % of a blob, Expire+GC+Compact, then a cold scan: " +
			"the same stores through weaving, deletes, tombstones and segment rewrites, measured after ageing",
		chunk:   agedWrite,
		samples: func(h *harness) int { return agedRounds(h) * max(agedWrites(h), agedBlobMiB(h)) / h.clients },
		run:     agedChurn,
	},
}

func workloadByName(name string) (Workload, bool) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// Sizes. The full sizes are fixed once committed: results are only
// comparable between runs of the same sizes. Each rounds-per-second
// constant is 1 / (the wall time of one round on the 2-core sandbox).

func appendPerClient(h *harness) int { return h.pick(256, 4) } // 1 MiB appends per client per round
func appendRounds(h *harness) int    { return h.rounds(0.7) }

// appendShared: every round starts a fresh cluster (the previous one is
// removed first), so no round pays the first-touch cost of page-cache
// memory the run has not used before; see the README's first trap.
func appendShared(h *harness) error {
	perClient := appendPerClient(h)
	blobBytes := perClient * h.clients * payloadBytes
	exp := h.newExpect(blobBytes, payloadBytes)

	// one runs a round on its own cluster. A warm-up round reads the
	// blob back and checks it; so does the last measured one, after its
	// end-of-run readings are taken.
	one := func(measured, final bool) error {
		r, err := h.startRig(rigOptions{})
		if err != nil {
			return err
		}
		defer r.close()
		ss, err := h.create(r, 0)
		if err != nil {
			return err
		}
		defer h.hangUp(ss)
		body := func() error {
			h.writePhase(r, func() { h.appends(ss, perClient, exp) })
			return nil
		}
		if measured {
			err = h.round(r, body)
		} else {
			err = h.warm(body)
		}
		if err != nil {
			return err
		}
		if err := h.noteDisk(r, blobBytes); err != nil {
			return err
		}
		if final {
			h.probe(r, ss[0])
		}
		if !measured || final {
			return h.warm(func() error { return h.scan(r, ss[0].id, 0, blobBytes, payloadBytes, exp) })
		}
		return nil
	}

	if _, err := h.setUp(func() (*rig, error) {
		return nil, one(false, false)
	}); err != nil {
		return err
	}
	n := appendRounds(h)
	for i := range n {
		if err := one(true, i == n-1); err != nil {
			return err
		}
	}
	return nil
}

func scanBlobMiB(h *harness) int { return h.pick(512, 8) }
func scanRounds(h *harness) int  { return h.rounds(1.0) }

func scanCold(h *harness) error {
	blobBytes := scanBlobMiB(h) << 20
	exp := h.newExpect(blobBytes, payloadBytes)
	var first *session
	r, err := h.setUp(func() (*rig, error) {
		r, err := h.startRig(rigOptions{})
		if err != nil {
			return nil, err
		}
		ss, err := h.build(r, 0, blobBytes, exp)
		if err != nil {
			return r, err
		}
		first = ss[0]
		h.hangUp(ss[1:])
		return r, h.warm(func() error {
			return h.scan(r, first.id, 0, blobBytes, payloadBytes, exp)
		})
	})
	if err != nil {
		return err
	}
	defer r.close()
	defer func() { h.hangUp([]*session{first}) }()

	v, _, err := first.Recent(h.ctx)
	if err != nil {
		return err
	}
	for range scanRounds(h) {
		if err := h.round(r, func() error {
			return h.scan(r, first.id, v, blobBytes, payloadBytes, exp)
		}); err != nil {
			return err
		}
	}
	if err := h.noteDisk(r, blobBytes); err != nil {
		return err
	}
	h.probe(r, first)
	return h.warm(func() error { return h.scan(r, first.id, v, blobBytes, payloadBytes, exp) })
}

// build creates the workload's blob with the given page size (0: the
// 64 KiB default) and fills it with 1 MiB appends from every client.
func (h *harness) build(r *rig, pageSize uint32, blobBytes int, exp *expect) ([]*session, error) {
	ss, err := h.create(r, pageSize)
	if err != nil {
		return nil, err
	}
	h.appends(ss, blobBytes/payloadBytes/h.clients, exp)
	return ss, nil
}

const smallPage = 4 << 10

func smallBlobMiB(h *harness) int { return h.pick(64, 4) }
func smallOps(h *harness) int     { return h.pick(1000, 200) } // per client per round
func smallRounds(h *harness) int  { return h.rounds(1.75) }

// smallRW: each client owns the pages congruent to its index, so the
// newest bytes of a page are always the ones its owner wrote last and a
// read can be checked without knowing how the two clients' versions
// interleaved.
func smallRW(h *harness) error {
	blobBytes := smallBlobMiB(h) << 20
	own := blobBytes / smallPage / h.clients // pages per client
	ops := smallOps(h)
	exp := h.newExpect(blobBytes, smallPage)
	var ss []*session

	// Popularity is zipf(1.1) over a client's pages; the multiplier
	// scatters the ranks so hot pages are not neighbours in the tree.
	zipfs := make([]*rand.Zipf, h.clients)
	for ci := range zipfs {
		zipfs[ci] = rand.NewZipf(h.cs[ci].rng, 1.1, 1, uint64(own-1))
	}
	page := func(ci int) uint64 {
		return (zipfs[ci].Uint64()*2654435761%uint64(own))*uint64(h.clients) + uint64(ci)
	}
	body := func(r *rig) func() error {
		return func() error {
			h.writePhase(r, func() {
				h.each(func(ci int) {
					for i := range ops {
						off := page(ci) * smallPage
						if i%2 == 1 {
							h.read(ci, ss[ci], 0, smallPage, off, exp)
							continue
						}
						buf, variant := h.pool.pick(h.cs[ci].rng, smallPage)
						if _, ok := h.write(ci, ss[ci], buf, int64(off)); ok {
							h.pool.record(exp, off, smallPage, variant)
						}
					}
				})
			})
			return nil
		}
	}

	r, err := h.setUp(func() (*rig, error) {
		r, err := h.startRig(rigOptions{})
		if err != nil {
			return nil, err
		}
		if ss, err = h.build(r, smallPage, blobBytes, exp); err != nil {
			return r, err
		}
		return r, h.warm(body(r))
	})
	if err != nil {
		return err
	}
	defer r.close()
	defer func() { h.hangUp(ss) }()

	for range smallRounds(h) {
		if err := h.round(r, body(r)); err != nil {
			return err
		}
	}
	if err := h.noteDisk(r, blobBytes); err != nil {
		return err
	}
	h.probe(r, ss[0])
	return h.warm(func() error { return h.scan(r, ss[0].id, 0, blobBytes, smallPage*256, exp) })
}

const (
	agedWrite  = 256 << 10
	agedBurnIn = 3 // unmeasured cycles after the build
	// The page logs roll at a quarter of the blob, so each of the four
	// providers seals its share of the build as one segment and there is
	// something to compact from the first cycle on.
	agedSegment = 32 << 20
)

func agedBlobMiB(h *harness) int { return h.pick(128, 8) }
func agedWrites(h *harness) int  { return agedBlobMiB(h) << 20 / agedWrite / 4 } // 25 % of the blob per cycle
func agedRounds(h *harness) int  { return h.rounds(1.0) }

// agedChurn: a round is one cycle of churn, reclaim and scan. The page
// logs run without the background compactor (CompactRatio 0): it is
// nudged by every tombstone batch and races the collector, so how much
// it rewrites, and when, depends on goroutine timing. Without it the
// only compaction is the reclaim phase's own Compact call, which
// rewrites every sealed segment that holds garbage, and the on-disk size
// after every cycle repeats exactly.
func agedChurn(h *harness) error {
	blobBytes := agedBlobMiB(h) << 20
	own := blobBytes / agedWrite / h.clients // chunks per client
	perClient := agedWrites(h) / h.clients
	exp := h.newExpect(blobBytes, agedWrite)
	var ss []*session

	// reclaim keeps only the newest version, v.
	reclaim := func(r *rig, v blobseer.Version) error {
		t0 := time.Now()
		if _, err := ss[0].Expire(h.ctx, v-1); err != nil {
			return err
		}
		if _, err := ss[0].GC(h.ctx); err != nil {
			return err
		}
		t1 := time.Now()
		for _, d := range r.disks {
			if err := d.Compact(); err != nil {
				return err
			}
		}
		t2 := time.Now()
		if err := r.cl.CompactMetadata(); err != nil {
			return err
		}
		t3 := time.Now()
		if h.opts.Verbose {
			n, _ := r.diskBytes()
			fmt.Fprintf(os.Stderr, "  expire+gc %.0f ms, page compact %.0f ms, meta compact %.0f ms, disk after reclaim %.3f\n",
				ms(t1.Sub(t0)), ms(t2.Sub(t1)), ms(t3.Sub(t2)), float64(n)/float64(blobBytes))
		}
		if h.counting {
			h.probes["reclaim_ms"] += ms(t3.Sub(t0))
			h.probes["page_compact_ms"] += ms(t2.Sub(t1))
			h.probes["meta_compact_ms"] += ms(t3.Sub(t2))
			h.probes["cycles"]++
			for _, d := range r.disks {
				h.probes["capture_pause_us_max"] = max(h.probes["capture_pause_us_max"],
					float64(d.LastCapturePause().Microseconds()))
			}
		}
		return nil
	}
	cycle := func(r *rig) func() error {
		return func() error {
			// Churn: seeded uniform chunk offsets, each client in its
			// own chunks (see smallRW).
			h.writePhase(r, func() {
				h.each(func(ci int) {
					rng := h.cs[ci].rng
					for range perClient {
						off := uint64(rng.Intn(own)*h.clients+ci) * agedWrite
						buf, variant := h.pool.pick(rng, agedWrite)
						if _, ok := h.write(ci, ss[ci], buf, int64(off)); ok {
							h.pool.record(exp, off, agedWrite, variant)
						}
					}
				})
			})
			if err := h.noteDisk(r, blobBytes); err != nil {
				return err
			}
			v, _, err := ss[0].Recent(h.ctx)
			if err != nil {
				return err
			}
			if err := reclaim(r, v); err != nil {
				return err
			}
			return h.scan(r, ss[0].id, v, blobBytes, payloadBytes, exp)
		}
	}

	r, err := h.setUp(func() (*rig, error) {
		r, err := h.startRig(rigOptions{pageSegment: agedSegment})
		if err != nil {
			return nil, err
		}
		if ss, err = h.build(r, 0, blobBytes, exp); err != nil {
			return r, err
		}
		return r, h.warm(func() error {
			for range agedBurnIn {
				if err := cycle(r)(); err != nil {
					return err
				}
			}
			return nil
		})
	})
	if err != nil {
		return err
	}
	defer r.close()
	defer func() { h.hangUp(ss) }()

	h.diskPeak = 0 // burn-in peaks do not count
	for range agedRounds(h) {
		if err := h.round(r, cycle(r)); err != nil {
			return err
		}
	}
	h.probe(r, ss[0])
	return h.warm(func() error { return h.scan(r, ss[0].id, 0, blobBytes, payloadBytes, exp) })
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
