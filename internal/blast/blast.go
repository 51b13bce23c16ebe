// Package blast is the engine of cmd/blobseer-blast, the repository's
// end-to-end benchmark: four fixed, seeded workloads driven through the
// public blobseer API against a durable cluster on loopback TCP, with
// every read verified, and a traced mode that produces per-layer
// numbers from outside the program. cmd/blobseer-blast/README.md
// defines every workload and metric and records the noise budget the
// design follows.
package blast

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"blobseer"
)

// Options selects and sizes one run of one workload.
type Options struct {
	Workload string
	// Seed derives offsets and payload choice. Operation counts do not
	// depend on it, so they repeat exactly across seeds.
	Seed int64
	// Seconds sets how many fixed-work rounds are measured: the round
	// count is Seconds times a per-workload constant calibrated on the
	// 2-core sandbox, so a faster build finishes sooner but never runs
	// a different workload.
	Seconds int
	// Trace runs the traced variant: the store decorator, the transport
	// tap and the counter snapshots are on in every other round, and
	// the result carries the per-layer metrics.
	Trace bool
	// Quick shrinks every size to a few MiB and two rounds (smoke test).
	Quick bool
	// Dir is where cluster directories are created (default
	// os.TempDir()).
	Dir string
	// Verbose prints one line per measured round on standard error.
	Verbose bool

	flipExpected bool // test hook, see expect.flip
}

// Metric is one named measurement.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is what one run of one workload produced.
type Result struct {
	Workload  string `json:"workload"`
	Trace     bool   `json:"trace"`
	Env       Env    `json:"env"`
	Correct   bool   `json:"correct"`
	Attempted int64  `json:"attempted"`
	Failed    int64  `json:"failed"`
	// Metrics holds every end-to-end metric of an untraced run, or
	// every per-layer metric of a traced one.
	Metrics map[string]Metric `json:"metrics"`
	// Detail holds what is printed beside them: an untraced run's
	// wall-clock metrics under their per-layer names, sample and round
	// counts, the host's steal share, and a traced run's own end-to-end
	// figures.
	Detail map[string]Metric `json:"detail"`
}

type opKind int

const (
	opWrite opKind = iota
	opRead
	nKinds
)

// setupReps is how many times a workload's set-up runs; setup_s is the
// median, so one slow first touch of fresh memory does not set it.
const setupReps = 3

// sampleEvery is the seeded share of reads checked inside measured
// rounds; warm-up rounds and the final pass check every read.
const sampleEvery = 16

// harness is the state of one run. Its live heap stays small and
// constant (payload pool, one read buffer per client, pre-sized sample
// slices): see the pool comment.
type harness struct {
	opts Options
	//blobseer:ctx the harness lives exactly as long as the Run call whose context this is
	ctx     context.Context
	base    string
	clients int
	pool    *pool
	taps    *taps // nil in an untraced run
	cs      []clientState
	live    []*session

	verifyAll bool // check every read, not a sample
	counting  bool // this round's samples and counters feed the metrics
	roundIdx  int

	attempted, failed atomic.Int64
	errOnce           sync.Once

	setups    []float64 // seconds per set-up
	diskPeak  float64   // highest files-on-disk / live user bytes noted
	thr       [nKinds][]float64
	thrOff    [nKinds][]float64 // traced run, rounds with the taps off
	acc       vec               // counter deltas over counting rounds
	userBytes [nKinds]float64   // user bytes moved by counted operations
	cache     cacheStats
	metaKeys  float64 // metadata keys added by counted write phases
	probes    map[string]float64
}

// clientState belongs to one client goroutine during a phase.
type clientState struct {
	rng   *rand.Rand
	buf   []byte
	busy  [nKinds]time.Duration // time inside operations this round
	bytes [nKinds]int64
	lat   [nKinds][]int64
	// Traced run: a write split into its Append/Write call and the
	// wait for publication.
	callNs, syncNs []int64
}

// Run executes one workload and returns its result. The error reports
// a harness failure; failed operations and mismatched reads are counted
// in the result instead, which is then not Correct.
func Run(ctx context.Context, opts Options) (*Result, error) {
	wl, ok := workloadByName(opts.Workload)
	if !ok {
		return nil, fmt.Errorf("blast: unknown workload %q", opts.Workload)
	}
	if opts.Seconds <= 0 {
		opts.Seconds = 1
	}
	if opts.Dir == "" {
		opts.Dir = os.TempDir()
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	base, err := os.MkdirTemp(opts.Dir, "blast-"+wl.Name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(base)

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heap0 := ms.HeapAlloc

	h := &harness{
		opts:    opts,
		ctx:     ctx,
		base:    base,
		clients: min(2, runtime.NumCPU()),
		probes:  make(map[string]float64),
	}
	if opts.Trace {
		h.taps = &taps{}
	}
	h.pool = newPool(opts.Seed, wl.chunk)
	h.cs = make([]clientState, h.clients)
	samples := wl.samples(h)
	for ci := range h.cs {
		cs := &h.cs[ci]
		cs.rng = rand.New(rand.NewSource(opts.Seed*1000 + int64(ci)))
		cs.buf = make([]byte, payloadBytes)
		for k := range cs.lat {
			cs.lat[k] = make([]int64, 0, samples)
		}
		if opts.Trace {
			cs.callNs = make([]int64, 0, samples)
			cs.syncNs = make([]int64, 0, samples)
		}
	}
	// The harness's whole live heap exists now, with no cluster attached.
	runtime.GC()
	runtime.ReadMemStats(&ms)
	h.probes["harness.live_heap_mb"] = float64(ms.HeapAlloc-heap0) / MB

	if err := wl.run(h); err != nil {
		return nil, fmt.Errorf("blast: %s: %w", wl.Name, err)
	}
	return h.result(wl), nil
}

// rounds converts the time budget into a fixed round count.
func (h *harness) rounds(perSecond float64) int {
	if h.opts.Quick {
		return 2
	}
	return max(2, int(float64(h.opts.Seconds)*perSecond+0.5))
}

// pick returns full, or quick in a -quick run.
func (h *harness) pick(full, quick int) int {
	if h.opts.Quick {
		return quick
	}
	return full
}

// setUp runs build setupReps times and times each; every result but the
// last is torn down, so the measured rounds start from a set-up that is
// neither the first nor special. build may return the rig it started
// together with an error; setUp closes it.
func (h *harness) setUp(build func() (*rig, error)) (*rig, error) {
	for k := 0; ; k++ {
		t0 := time.Now()
		r, err := build()
		h.setups = append(h.setups, time.Since(t0).Seconds())
		if err == nil && k == setupReps-1 {
			return r, nil
		}
		if r != nil {
			h.hangUp(slices.Clone(h.live))
			r.close()
		}
		if err != nil {
			return nil, err
		}
	}
}

// each runs fn once per client goroutine and waits: a closed loop with
// exactly h.clients operations in flight.
func (h *harness) each(fn func(ci int)) {
	var wg sync.WaitGroup
	for ci := range h.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(ci)
		}()
	}
	wg.Wait()
}

// warm runs body as an unmeasured round that checks every read.
func (h *harness) warm(body func() error) error {
	h.verifyAll = true
	defer func() { h.verifyAll = false }()
	return body()
}

// round runs body as one measured round on r. The garbage collection,
// the counter snapshots and everything the caller does between rounds
// are outside every timed span.
func (h *harness) round(r *rig, body func() error) error {
	on := h.taps != nil && h.roundIdx%2 == 0
	h.roundIdx++
	for ci := range h.cs {
		h.cs[ci].busy = [nKinds]time.Duration{}
		h.cs[ci].bytes = [nKinds]int64{}
	}
	for _, s := range h.live {
		s.mark = s.stats()
	}
	runtime.GC()
	h.counting = h.taps == nil || on
	if on {
		h.taps.on.Store(true)
	}
	before := h.snap(r)
	err := body()
	after := h.snap(r)
	if on {
		h.taps.on.Store(false)
	}
	for _, s := range h.live {
		h.collect(s)
	}
	counted := h.counting
	h.counting = false
	if counted {
		h.acc.add(after.sub(before))
	}
	if h.opts.Verbose {
		fmt.Fprintf(os.Stderr, "round %d: %.2fs write %.1f MB/s read %.1f MB/s steal %.3f disk %.3f taps=%v\n", h.roundIdx,
			(after[cWallNs]-before[cWallNs])/1e9, h.roundMBs(opWrite), h.roundMBs(opRead),
			ratio(after[cStealNs]-before[cStealNs], (after[cWallNs]-before[cWallNs])*float64(runtime.NumCPU())), h.diskPeak, on)
	}
	for k := opKind(0); k < nKinds; k++ {
		mbs := h.roundMBs(k)
		switch {
		case mbs == 0:
		case counted:
			h.thr[k] = append(h.thr[k], mbs)
			for ci := range h.cs {
				h.userBytes[k] += float64(h.cs[ci].bytes[k])
			}
		default:
			h.thrOff[k] = append(h.thrOff[k], mbs)
		}
	}
	return err
}

// roundMBs is this round's throughput for one operation type: user
// bytes moved per second of the mean time a client spent inside such
// operations. What the harness does between operations (drawing the
// next payload, checksumming a sampled read) is not charged.
func (h *harness) roundMBs(k opKind) float64 {
	var busy time.Duration
	var bytes int64
	for ci := range h.cs {
		busy += h.cs[ci].busy[k]
		bytes += h.cs[ci].bytes[k]
	}
	return ratio(float64(bytes)/MB, busy.Seconds()/float64(h.clients))
}

func (h *harness) fail(err error) {
	h.failed.Add(1)
	h.errOnce.Do(func() { fmt.Fprintln(os.Stderr, "blast: first failed operation:", err) })
}

// write performs one Append (off < 0) or Write plus the Sync that waits
// for its publication, as one timed operation.
func (h *harness) write(ci int, b blobAPI, buf []byte, off int64) (blobseer.Version, bool) {
	cs := &h.cs[ci]
	var v blobseer.Version
	var err error
	t0 := time.Now()
	if off < 0 {
		v, err = b.Append(h.ctx, buf)
	} else {
		v, err = b.Write(h.ctx, buf, uint64(off))
	}
	t1 := time.Now()
	if err == nil {
		err = b.Sync(h.ctx, v)
	}
	t2 := time.Now()
	h.attempted.Add(1)
	if err != nil {
		h.fail(err)
		return 0, false
	}
	cs.busy[opWrite] += t2.Sub(t0)
	cs.bytes[opWrite] += int64(len(buf))
	if h.counting {
		cs.lat[opWrite] = append(cs.lat[opWrite], int64(t2.Sub(t0)))
		if h.taps != nil {
			cs.callNs = append(cs.callNs, int64(t1.Sub(t0)))
			cs.syncNs = append(cs.syncNs, int64(t2.Sub(t1)))
		}
	}
	return v, true
}

// read performs one timed Read of n bytes of version v (the newest
// version, asked for inside the timed span, when v is 0) and then,
// after the latency is stamped, checks the bytes against exp.
func (h *harness) read(ci int, b blobAPI, v blobseer.Version, n int, off uint64, exp *expect) {
	cs := &h.cs[ci]
	buf := cs.buf[:n]
	var err error
	t0 := time.Now()
	if v == 0 {
		v, _, err = b.Recent(h.ctx)
	}
	if err == nil {
		err = b.Read(h.ctx, v, buf, off)
	}
	d := time.Since(t0)
	h.attempted.Add(1)
	if err != nil {
		h.fail(err)
		return
	}
	cs.busy[opRead] += d
	cs.bytes[opRead] += int64(n)
	if h.counting {
		cs.lat[opRead] = append(cs.lat[opRead], int64(d))
	}
	if (h.verifyAll || cs.rng.Intn(sampleEvery) == 0) && !exp.check(off, buf) {
		h.fail(fmt.Errorf("checksum mismatch: %d bytes at offset %d of version %d", n, off, v))
	}
}

// scan reads blobBytes of version v end to end with fresh (cold-cache)
// clients, each taking one contiguous share in readBytes-sized reads.
func (h *harness) scan(r *rig, id blobseer.BlobID, v blobseer.Version, blobBytes, readBytes int, exp *expect) error {
	ss, err := h.dialAll(r, id)
	if err != nil {
		return err
	}
	defer h.hangUp(ss)
	share := blobBytes / h.clients
	h.each(func(ci int) {
		for off := ci * share; off < (ci+1)*share; off += readBytes {
			h.read(ci, ss[ci], v, readBytes, uint64(off), exp)
		}
	})
	return nil
}

// appends has every client append perClient 1 MiB payloads to the
// shared blob. The version manager orders equal-sized appends to an
// initially empty blob by version, so version v landed at (v-1) MiB.
func (h *harness) appends(ss []*session, perClient int, exp *expect) {
	h.each(func(ci int) {
		for range perClient {
			buf, variant := h.pool.pick(h.cs[ci].rng, payloadBytes)
			if v, ok := h.write(ci, ss[ci], buf, -1); ok {
				h.pool.record(exp, uint64(v-1)*payloadBytes, payloadBytes, variant)
			}
		}
	})
}
