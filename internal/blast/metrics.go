package blast

import (
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"blobseer"
)

// Def declares one metric: its name and unit, which direction is
// better and the share of the other side's median by which it may get
// worse. BENCHMARK.json carries the same tables for the driver (bounds
// for the end-to-end metrics only); the package test keeps the two
// identical.
type Def struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// EndToEnd lists the bounded metrics: the ones this sandbox repeats
// within a count bound of 2 % or a wall-clock bound of 10 %, plus
// setup_s, which the driver requires and which carries the driver's cap
// (README, "Bounds"). Every workload reports every one of them.
var EndToEnd = []Def{
	{"disk_bytes_per_user_byte", "ratio", "lower", 0.02},
	{"alloc_kb_per_op", "KB", "lower", 0.02},
	{"peak_rss_mb", "MB", "lower", 0.10},
	{"setup_s", "s", "lower", 0.25},
}

// wallClock is the bound -compare applies to the throughput and latency
// metrics. They are per-layer metrics because the sandbox host does not
// repeat them within it from one quarter of an hour to the next; only
// interleaved sets of runs resolve it.
const wallClock = 0.10

// PerLayer lists the traced run's metrics; the layer is the module
// name before the dot. The driver gives them no bound. The untraced run
// prints the wall-clock ones too, as details under the same names.
var PerLayer = []Def{
	{"client.write_mb_s", "MB/s", "higher", wallClock},
	{"client.write_p50_ms", "ms", "lower", wallClock},
	{"client.write_p99_ms", "ms", "lower", wallClock},
	{"client.read_mb_s", "MB/s", "higher", wallClock},
	{"client.read_p50_ms", "ms", "lower", wallClock},
	{"client.read_p99_ms", "ms", "lower", wallClock},
	{"client.reclaim_ms_per_mb", "ms/MB", "lower", wallClock},
	{"client.append_call_ms_p50", "ms", "lower", 0},
	{"client.sync_wait_ms_p50", "ms", "lower", 0},
	{"client.page_cache_hit_ratio", "ratio", "higher", 0},
	{"client.dup_fetch_ratio", "ratio", "lower", 0},
	{"client.fetch_rpcs_per_page", "ratio", "lower", 0},
	{"client.hedges_per_kfetch", "count", "lower", 0},
	{"meta.cache_hit_ratio", "ratio", "higher", 0},
	{"meta.nodes_put_per_write", "count", "lower", 0},
	{"version.wal_appends_per_op", "count", "lower", 0},
	{"version.recent_rtt_us_p50", "us", "lower", 0},
	{"provider.bytes_out_per_user_byte", "ratio", "lower", 0},
	{"provider.bytes_in_per_user_byte", "ratio", "lower", 0},
	{"provider.page_skew", "ratio", "lower", 0},
	{"pagestore.put_us_p50", "us", "lower", 0},
	{"pagestore.put_busy_ms_per_op", "ms", "lower", 0},
	{"pagestore.get_us_p50", "us", "lower", 0},
	{"pagestore.get_busy_ms_per_op", "ms", "lower", 0},
	{"pagestore.gets_per_op", "count", "lower", 0},
	{"pagestore.delete_us_p50", "us", "lower", 0},
	{"pagestore.log_bytes_per_live_byte", "ratio", "lower", 0},
	{"pagestore.compact_ms_per_cycle", "ms", "lower", 0},
	{"pagestore.compactions", "count", "lower", 0},
	{"pagestore.capture_pause_us_max", "us", "lower", 0},
	{"dht.bytes_out_per_op", "B", "lower", 0},
	{"dht.bytes_in_per_op", "B", "lower", 0},
	{"dht.log_bytes_per_key", "B", "lower", 0},
	{"dht.compact_ms_per_cycle", "ms", "lower", 0},
	{"rpc.conn_writes_per_op", "count", "lower", 0},
	{"rpc.write_block_ms_per_op", "ms", "lower", 0},
	{"rpc.wire_bytes_per_user_byte", "ratio", "lower", 0},
	{"rpc.dials", "count", "lower", 0},
	{"runtime.allocs_per_op", "count", "lower", 0},
	{"runtime.gc_cycles_per_kop", "count", "lower", 0},
	{"runtime.gc_pause_ms_per_s", "ms/s", "lower", 0},
	{"runtime.cpu_ms_per_op", "ms", "lower", 0},
	{"runtime.cpu_sys_share", "ratio", "lower", 0},
	{"harness.live_heap_mb", "MB", "lower", 0},
	{"harness.trace_overhead_ratio", "ratio", "higher", 0},
	{"harness.round_cov", "ratio", "lower", 0},
}

// Monotonic counters snapshotted around every round.
const (
	cWallNs = iota
	cAllocBytes
	cMallocs
	cGCCycles
	cGCPauseNs
	cUserNs
	cSysNs
	cStealNs // time the hypervisor ran something else on this guest's CPUs
	cWALAppends
	cNetWrites
	cNetWriteNs
	cNetBytes
	cDataOut // bytes data providers sent to clients
	cDataIn  // bytes clients sent to data providers
	cMetaOut
	cMetaIn
	cDials
	cPutNs
	cGets
	cGetNs
	nCounters
)

type vec [nCounters]float64

func (a vec) sub(b vec) vec {
	for i := range a {
		a[i] -= b[i]
	}
	return a
}

func (a *vec) add(b vec) {
	for i := range a {
		a[i] += b[i]
	}
}

// snap reads every counter. ReadMemStats stops the world, so it is
// only ever called between rounds.
func (h *harness) snap(r *rig) vec {
	var v vec
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	v[cAllocBytes] = float64(ms.TotalAlloc)
	v[cMallocs] = float64(ms.Mallocs)
	v[cGCCycles] = float64(ms.NumGC)
	v[cGCPauseNs] = float64(ms.PauseTotalNs)
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		v[cUserNs] = float64(ru.Utime.Nano())
		v[cSysNs] = float64(ru.Stime.Nano())
	}
	v[cStealNs] = stealNs()
	if t := h.taps; t != nil {
		appends, _ := r.cl.VM.WALStats()
		v[cWALAppends] = float64(appends)
		for i := range t.net {
			c := &t.net[i]
			v[cNetWrites] += float64(c.writes.Load())
			v[cNetWriteNs] += float64(c.writeNs.Load())
			v[cNetBytes] += float64(c.bytesOut.Load() + c.bytesIn.Load())
		}
		v[cDataOut] = float64(t.net[roleData].bytesIn.Load())
		v[cDataIn] = float64(t.net[roleData].bytesOut.Load())
		v[cMetaOut] = float64(t.net[roleMeta].bytesIn.Load())
		v[cMetaIn] = float64(t.net[roleMeta].bytesOut.Load())
		v[cDials] = float64(t.dials.Load())
		v[cPutNs] = float64(t.put.sumNs.Load())
		v[cGets] = float64(t.get.count.Load())
		v[cGetNs] = float64(t.get.sumNs.Load())
	}
	v[cWallNs] = float64(time.Now().UnixNano())
	return v
}

// cacheStats are a client's read-path and metadata-cache counters.
type cacheStats struct {
	page               blobseer.PageCacheStats
	metaHits, metaMiss uint64
}

func (s *session) stats() cacheStats {
	if s.traced == nil {
		return cacheStats{}
	}
	var c cacheStats
	c.page = s.traced.PageCacheStats()
	c.metaHits, c.metaMiss = s.traced.MetaCacheStats()
	return c
}

// collect adds what s counted since its mark to the run's totals.
func (h *harness) collect(s *session) {
	if !h.counting || s.traced == nil {
		return
	}
	now, was, sum := s.stats(), s.mark, &h.cache
	sum.page.Hits += now.page.Hits - was.page.Hits
	sum.page.Misses += now.page.Misses - was.page.Misses
	sum.page.HedgesFired += now.page.HedgesFired - was.page.HedgesFired
	sum.page.FetchRPCs += now.page.FetchRPCs - was.page.FetchRPCs
	sum.page.PagesFetched += now.page.PagesFetched - was.page.PagesFetched
	sum.metaHits += now.metaHits - was.metaHits
	sum.metaMiss += now.metaMiss - was.metaMiss
}

// writePhase runs fn, a phase that writes, and — in a counted traced
// round — notes how many metadata keys it added.
func (h *harness) writePhase(r *rig, fn func()) {
	if h.taps == nil || !h.counting {
		fn()
		return
	}
	before, _ := r.cl.MetaStats()
	fn()
	after, _ := r.cl.MetaStats()
	h.metaKeys += float64(after) - float64(before)
}

// noteDisk records the files-on-disk to live-user-bytes ratio if it is
// the highest seen.
func (h *harness) noteDisk(r *rig, liveBytes int) error {
	n, err := r.diskBytes()
	h.diskPeak = max(h.diskPeak, float64(n)/float64(liveBytes))
	return err
}

// probe takes the traced run's end-of-run readings on the idle cluster.
func (h *harness) probe(r *rig, s *session) {
	if h.taps == nil {
		return
	}
	// One Recent is one full rpc hop to the version manager.
	rtts := make([]int64, h.pick(2000, 200))
	for i := range rtts {
		t0 := time.Now()
		if _, _, err := s.Recent(h.ctx); err != nil {
			h.fail(err)
			return
		}
		rtts[i] = int64(time.Since(t0))
	}
	slices.Sort(rtts)
	p := h.probes
	p["version.recent_rtt_us_p50"] = percentile(rtts, 0.5) / 1e3

	var logBytes, liveBytes, maxPages, sumPages, compactions float64
	for _, d := range r.disks {
		pages, bytes := d.Stats()
		logBytes += float64(d.LogBytes())
		liveBytes += float64(bytes)
		sumPages += float64(pages)
		maxPages = max(maxPages, float64(pages))
		compactions += float64(d.Compactions())
	}
	p["provider.page_skew"] = ratio(maxPages, sumPages/float64(len(r.disks)))
	p["pagestore.log_bytes_per_live_byte"] = ratio(logBytes, liveBytes)
	p["pagestore.compactions"] = compactions
	keys, _ := r.cl.MetaStats()
	p["dht.log_bytes_per_key"] = ratio(float64(r.cl.MetaLogBytes()), float64(keys))
}

// pooled returns the sorted latency samples of one operation type.
func (h *harness) pooled(pick func(cs *clientState) []int64) []int64 {
	var all []int64
	for ci := range h.cs {
		all = append(all, pick(&h.cs[ci])...)
	}
	slices.Sort(all)
	return all
}

// result turns what the run recorded into named metrics.
func (h *harness) result(wl Workload) *Result {
	res := &Result{
		Workload:  wl.Name,
		Trace:     h.opts.Trace,
		Env:       h.env(),
		Attempted: h.attempted.Load(),
		Failed:    h.failed.Load(),
		Metrics:   make(map[string]Metric),
		Detail:    make(map[string]Metric),
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0

	writes := h.pooled(func(cs *clientState) []int64 { return cs.lat[opWrite] })
	reads := h.pooled(func(cs *clientState) []int64 { return cs.lat[opRead] })
	nw, nr := float64(len(writes)), float64(len(reads))
	ops := nw + nr
	wroteB, readB := h.userBytes[opWrite], h.userBytes[opRead]
	a, p := h.acc, h.probes

	e2e := map[string]float64{
		"disk_bytes_per_user_byte": h.diskPeak,
		"alloc_kb_per_op":          ratio(a[cAllocBytes]/1e3, ops),
		"peak_rss_mb":              peakRSSMB(),
		"setup_s":                  Median(h.setups),
	}
	// The wall-clock metrics: per-layer in the driver's terms, measured
	// by both runs (by the traced one in its rounds with the taps on).
	layer := map[string]float64{
		"client.write_mb_s":        Median(h.thr[opWrite]),
		"client.write_p50_ms":      percentile(writes, 0.5) / 1e6,
		"client.write_p99_ms":      percentile(writes, 0.99) / 1e6,
		"client.read_mb_s":         Median(h.thr[opRead]),
		"client.read_p50_ms":       percentile(reads, 0.5) / 1e6,
		"client.read_p99_ms":       percentile(reads, 0.99) / 1e6,
		"client.reclaim_ms_per_mb": ratio(p["reclaim_ms"], wroteB/MB),
	}
	res.Detail = map[string]Metric{
		"rounds":           {float64(h.roundIdx), "count"},
		"write_samples":    {nw, "count"},
		"read_samples":     {nr, "count"},
		"cpu_ms_per_op":    {ratio((a[cUserNs]+a[cSysNs])/1e6, ops), "ms"},
		"host_steal_share": {ratio(a[cStealNs], a[cWallNs]*float64(runtime.NumCPU())), "ratio"},
	}

	if !h.opts.Trace {
		for _, d := range EndToEnd {
			res.Metrics[d.Name] = Metric{e2e[d.Name], d.Unit}
		}
		for _, d := range PerLayer {
			if v, ok := layer[d.Name]; ok {
				res.Detail[d.Name] = Metric{v, d.Unit}
			}
		}
		return res
	}
	for _, d := range EndToEnd {
		res.Detail[d.Name] = Metric{e2e[d.Name], d.Unit}
	}

	calls := h.pooled(func(cs *clientState) []int64 { return cs.callNs })
	syncs := h.pooled(func(cs *clientState) []int64 { return cs.syncNs })
	t, c := h.taps, h.cache.page
	overhead := 1.0
	for k := range h.thr {
		if len(h.thr[k]) > 0 && len(h.thrOff[k]) > 0 {
			overhead = min(overhead, Median(h.thr[k])/Median(h.thrOff[k]))
		}
	}
	roundThr := h.thr[opWrite]
	if len(roundThr) == 0 {
		roundThr = h.thr[opRead]
	}
	for name, v := range map[string]float64{
		"client.append_call_ms_p50":         percentile(calls, 0.5) / 1e6,
		"client.sync_wait_ms_p50":           percentile(syncs, 0.5) / 1e6,
		"client.page_cache_hit_ratio":       ratio(float64(c.Hits), float64(c.Hits+c.Misses)),
		"client.dup_fetch_ratio":            ratio(float64(c.PagesFetched), float64(c.Misses)),
		"client.fetch_rpcs_per_page":        ratio(float64(c.FetchRPCs), float64(c.PagesFetched)),
		"client.hedges_per_kfetch":          ratio(1e3*float64(c.HedgesFired), float64(c.FetchRPCs)),
		"meta.cache_hit_ratio":              ratio(float64(h.cache.metaHits), float64(h.cache.metaHits+h.cache.metaMiss)),
		"meta.nodes_put_per_write":          ratio(h.metaKeys, nw),
		"version.wal_appends_per_op":        ratio(a[cWALAppends], ops),
		"version.recent_rtt_us_p50":         p["version.recent_rtt_us_p50"],
		"provider.bytes_out_per_user_byte":  ratio(a[cDataOut], readB),
		"provider.bytes_in_per_user_byte":   ratio(a[cDataIn], wroteB),
		"provider.page_skew":                p["provider.page_skew"],
		"pagestore.put_us_p50":              t.put.quantileUs(0.5),
		"pagestore.put_busy_ms_per_op":      ratio(a[cPutNs]/1e6, nw),
		"pagestore.get_us_p50":              t.get.quantileUs(0.5),
		"pagestore.get_busy_ms_per_op":      ratio(a[cGetNs]/1e6, nr),
		"pagestore.gets_per_op":             ratio(a[cGets], nr),
		"pagestore.delete_us_p50":           t.del.quantileUs(0.5),
		"pagestore.log_bytes_per_live_byte": p["pagestore.log_bytes_per_live_byte"],
		"pagestore.compact_ms_per_cycle":    ratio(p["page_compact_ms"], p["cycles"]),
		"pagestore.compactions":             p["pagestore.compactions"],
		"pagestore.capture_pause_us_max":    p["capture_pause_us_max"],
		"dht.bytes_out_per_op":              ratio(a[cMetaOut], ops),
		"dht.bytes_in_per_op":               ratio(a[cMetaIn], ops),
		"dht.log_bytes_per_key":             p["dht.log_bytes_per_key"],
		"dht.compact_ms_per_cycle":          ratio(p["meta_compact_ms"], p["cycles"]),
		"rpc.conn_writes_per_op":            ratio(a[cNetWrites], ops),
		"rpc.write_block_ms_per_op":         ratio(a[cNetWriteNs]/1e6, ops),
		"rpc.wire_bytes_per_user_byte":      ratio(a[cNetBytes], wroteB+readB),
		"rpc.dials":                         a[cDials],
		"runtime.allocs_per_op":             ratio(a[cMallocs], ops),
		"runtime.gc_cycles_per_kop":         ratio(1e3*a[cGCCycles], ops),
		"runtime.gc_pause_ms_per_s":         ratio(a[cGCPauseNs]/1e6, a[cWallNs]/1e9),
		"runtime.cpu_ms_per_op":             ratio((a[cUserNs]+a[cSysNs])/1e6, ops),
		"runtime.cpu_sys_share":             ratio(a[cSysNs], a[cUserNs]+a[cSysNs]),
		"harness.live_heap_mb":              p["harness.live_heap_mb"],
		"harness.trace_overhead_ratio":      overhead,
		"harness.round_cov":                 cov(roundThr),
	} {
		layer[name] = v
	}
	for _, d := range PerLayer {
		res.Metrics[d.Name] = Metric{layer[d.Name], d.Unit}
	}
	return res
}

// stealNs is the guest's cumulative steal time: the eighth number of
// /proc/stat's first line, in hundredths of a second. 0 where the
// kernel does not report it.
func stealNs() float64 {
	stat, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(stat), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, _ := strconv.ParseFloat(f[8], 64)
	return ticks * 1e7
}

// peakRSSMB is the process's VmHWM.
func peakRSSMB() float64 {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb * 1024 / MB
		}
	}
	return 0
}
