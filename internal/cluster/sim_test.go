package cluster

// The paper's evaluation (§5) and the ablations nothing else measures,
// as virtual-time rows: each experiment but A2 (which counts bytes, in
// process) runs the real stack over internal/simnet under a
// vclock.Virtual, on the paper's Grid'5000 links (117.5 MB/s TCP,
// 0.1 ms) at 1/simScale of its data scale. Page sizes
// and link bandwidth are both divided by simScale, which keeps per-page
// transfer times, round-trip ratios, page counts and tree depths, and
// fits the paper's multi-GB runs in memory; bandwidths are reported back
// in the paper's units (MB/s, MB = 10⁶ bytes).
//
// Every experiment runs at two sizes. "pinned" is the size its test runs:
// the rows it prints are held value for value against
// testdata/sim/<experiment>.golden, and `go test -run <its test> -update`
// rewrites the file. "paper" is the paper's deployment, a sub-benchmark
// for humans:
//
//	go test -run '^$' -bench 'BenchmarkSim' -skip /paper -benchtime 1x ./internal/cluster
//	go test -run '^$' -bench 'BenchmarkSimFig2a/paper' -benchtime 1x ./internal/cluster
//
// The rows see round trips, bytes and queueing on the simulated links.
// They are blind to CPU, and disk time is zero virtual time: a CPU
// question stays on testing.B ns/op. A11's latencies and throughputs are
// not pinned, only its counts. The virtual clock fires timers one cascade
// at a time, in a fixed order, but one cascade can still wake several of
// A11's readers at once — simnet's pump finishes every segment due at its
// instant, and an rpc client's read loop wakes one caller and reads on to
// the next — and which of them takes a lock first moves its times by a few
// percent from run to run.

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"blobseer/internal/client"
	"blobseer/internal/obs"
	"blobseer/internal/simnet"
	"blobseer/internal/transport"
	"blobseer/internal/vclock"
	"blobseer/internal/wire"
)

const (
	simScale = 64  // page sizes and link bandwidth are divided by this
	mb       = 1e6 // the paper's MB
	// simLinkBps is the paper's measured link and simPage its 64 KB page,
	// both scaled.
	simLinkBps = 117.5 * mb / simScale
	simPage    = 64 << 10 / simScale
)

var update = flag.Bool("update", false, "rewrite testdata/sim/*.golden from this run")

// readOff is the paper's read path: no page cache, no hedging, no
// coalescing. A11 turns the rest on mechanism by mechanism.
var readOff = client.ReadTuning{PageCacheBytes: -1, HedgeDelay: -1, CoalescePages: -1}

// simRun stands the paper's deployment up on the scaled links — the two
// managers on nodes of their own, a data and a metadata provider on each
// of providers other nodes — and runs body inside the virtual clock.
func simRun(providers int, cfg Config, body func(clock *vclock.Virtual, net *simnet.Net, cl *Cluster) error) error {
	clock := vclock.NewVirtual(0)
	net := simnet.New(clock, simnet.Config{LinkBps: simLinkBps, Latency: 100 * time.Microsecond})
	var bodyErr error
	simErr := clock.Run(func() {
		cfg.DataProviders, cfg.MetaProviders = providers, providers
		cfg.HeartbeatEvery = time.Hour // keep the event stream quiet
		cl, err := StartSim(net, clock, cfg)
		if err != nil {
			bodyErr = err
			return
		}
		defer cl.Close()
		bodyErr = body(clock, net, cl)
	})
	if simErr != nil {
		return fmt.Errorf("simulation: %w", simErr)
	}
	return bodyErr
}

// coldClient builds a client on host that starts cold, as in a fresh
// paper run: no metadata cache, and read as its read path.
func coldClient(cl *Cluster, host string, read client.ReadTuning) (*client.Client, error) {
	return cl.NewClientCfg(host, func(c *client.Config) {
		c.MetaCacheNodes = -1
		c.Read = read
	})
}

// calibration is what T1 measured of the simulated link.
type calibration struct{ mbps, oneWayMS float64 }

// calibrate is T1: the simulated link against §5's measured figures,
// 117.5 MB/s TCP throughput and 0.1 ms latency. Between two idle nodes it
// times a 1-byte echo, then a bulk transfer of 64 MB of the paper's bytes
// (64 MiB at the paper size, where nothing is scaled but the link).
func calibrate(w io.Writer, paper bool) (calibration, error) {
	size := 64 << 20 / simScale
	if paper {
		size = 64 << 20
	}
	clock := vclock.NewVirtual(0)
	net := simnet.New(clock, simnet.Config{LinkBps: simLinkBps, Latency: 100 * time.Microsecond})
	var c calibration
	var err error
	if simErr := clock.Run(func() {
		var bw, rtt float64
		bw, rtt, err = measureLink(clock, net, size)
		c = calibration{bw * simScale / mb, rtt / 2 * 1e3}
	}); simErr != nil {
		return c, simErr
	}
	if err != nil {
		return c, err
	}
	fmt.Fprintf(w, "calibrate %d B: %v MB/s, one-way latency %v ms\n", size, c.mbps, c.oneWayMS)
	return c, nil
}

// measureLink transfers size bytes between two fresh nodes and returns
// the bandwidth (bytes/second) and the round-trip time of a 1-byte echo
// (seconds). It runs inside the simulation.
func measureLink(clock *vclock.Virtual, n *simnet.Net, size int) (bw, rtt float64, err error) {
	src, dst := n.Host("measure-src"), n.Host("measure-dst")
	ln, err := dst.Listen("sink")
	if err != nil {
		return 0, 0, err
	}
	defer ln.Close()
	done := clock.NewEvent()
	clock.Go(func() {
		done.Fire(echoThenSink(ln))
	})
	c, err := src.Dial(context.Background(), dst.Name()+":sink")
	if err != nil {
		return 0, 0, err
	}
	start := clock.Now()
	if _, err := c.Write([]byte{1}); err != nil {
		return 0, 0, err
	}
	if _, err := io.ReadFull(c, make([]byte, 1)); err != nil {
		return 0, 0, err
	}
	rtt = (clock.Now() - start).Seconds()
	buf := make([]byte, 256<<10)
	start = clock.Now()
	for left := size; left > 0; left -= len(buf) {
		if _, err := c.Write(buf[:min(len(buf), left)]); err != nil {
			return 0, 0, err
		}
	}
	c.Close()
	v, err := done.Wait(nil)
	if err != nil {
		return 0, 0, err
	}
	if got, ok := v.(int64); !ok || got != int64(size) {
		return 0, 0, fmt.Errorf("sink received %v bytes, want %d", v, size)
	}
	return float64(size) / (clock.Now() - start).Seconds(), rtt, nil
}

// echoThenSink accepts one connection, echoes its first byte and
// discards the rest; it returns the byte count discarded, or the error.
func echoThenSink(ln transport.Listener) any {
	c, err := ln.Accept()
	if err != nil {
		return err
	}
	defer c.Close()
	one := make([]byte, 1)
	if _, err := io.ReadFull(c, one); err != nil {
		return err
	}
	if _, err := c.Write(one); err != nil {
		return err
	}
	n, err := io.Copy(io.Discard, c)
	if err != nil {
		return err
	}
	return n
}

// fig2a is Figure 2(a), "Append throughput as a blob dynamically grows":
// one client on a node of its own appends 32 pages at a time to a fresh
// blob and syncs, and each append's bandwidth is recorded against the
// blob's size in pages. The paper's series — 64 KB and 256 KB pages, 50
// and 175 providers, past 1 200 pages — hold a sustained bandwidth that
// dips where the page count crosses a power of two (a new tree level).
// It returns every append's MB/s, series after series.
func fig2a(w io.Writer, paper bool) ([]float64, error) {
	pageSizes, providerCounts, totalPages := []uint64{64 << 10}, []int{8}, uint64(192)
	if paper {
		pageSizes, providerCounts, totalPages = []uint64{64 << 10, 256 << 10}, []int{50, 175}, 1280
	}
	const appendPages = 32
	var out []float64
	for _, ps := range pageSizes {
		for _, providers := range providerCounts {
			series := fmt.Sprintf("fig2a %d KB pages, %d providers", ps>>10, providers)
			var pts []float64
			err := simRun(providers, Config{}, func(clock *vclock.Virtual, _ *simnet.Net, cl *Cluster) error {
				ctx := context.Background()
				c, err := coldClient(cl, "client0", readOff)
				if err != nil {
					return err
				}
				blob, err := c.Create(ctx, uint32(ps/simScale))
				if err != nil {
					return err
				}
				data := make([]byte, appendPages*ps/simScale)
				for pages := uint64(appendPages); pages <= totalPages; pages += appendPages {
					start := clock.Now()
					v, err := c.Append(ctx, blob, data)
					if err != nil {
						return fmt.Errorf("append to %d pages: %w", pages, err)
					}
					if err := c.Sync(ctx, blob, v); err != nil {
						return err
					}
					pts = append(pts, float64(len(data))*simScale/(clock.Now()-start).Seconds()/mb)
				}
				return nil
			})
			if err != nil {
				return nil, fmt.Errorf("%s: %w", series, err)
			}
			fmt.Fprintf(w, "%s: MB/s of each %d-page append, to %d pages: %v\n", series, appendPages, totalPages, pts)
			out = append(out, pts...)
		}
	}
	return out, nil
}

// fig2b is Figure 2(b), "Read throughput under concurrency": one writer
// grows a blob of 64 KB pages, then N readers co-deployed with the
// providers, each a fresh client, read distinct chunks at once, and the
// average per-reader bandwidth is recorded as N grows. The paper sees
// 60 MB/s for one reader, degrading gently to 49 MB/s at 175 readers on
// 173 providers (175 nodes less the two managers). Its blob was 64 GB;
// the paper-size row grows 16 GB, which keeps the tree within two levels
// of the paper's and fits in memory. It returns the MB/s per reader
// count.
func fig2b(w io.Writer, paper bool) ([]float64, error) {
	providers, blobBytes, chunkBytes, growPages := 8, uint64(512<<20), uint64(32<<20), uint64(512)
	readerCounts := []int{1, 4, 8}
	if paper {
		providers, blobBytes, chunkBytes, growPages = 173, 16<<30, 64<<20, 1024
		readerCounts = []int{1, 25, 50, 100, 175}
	}
	chunk := chunkBytes / simScale
	var out []float64
	err := simRun(providers, Config{}, func(clock *vclock.Virtual, _ *simnet.Net, cl *Cluster) error {
		ctx := context.Background()
		loader, err := coldClient(cl, "client0", readOff)
		if err != nil {
			return err
		}
		blob, err := loader.Create(ctx, simPage)
		if err != nil {
			return err
		}
		data := make([]byte, growPages*simPage)
		var v wire.Version
		for sz := uint64(0); sz < blobBytes/simScale; sz += uint64(len(data)) {
			if v, err = loader.Append(ctx, blob, data); err != nil {
				return fmt.Errorf("grow at %d bytes: %w", sz, err)
			}
		}
		if err := loader.Sync(ctx, blob, v); err != nil {
			return err
		}
		for _, readers := range readerCounts {
			clients := make([]*client.Client, readers)
			for i := range clients {
				if clients[i], err = coldClient(cl, fmt.Sprintf("node%d", i%providers), readOff); err != nil {
					return err
				}
			}
			elapsed := make([]float64, readers)
			err := vclock.Parallel(clock, readers, func(i int) error {
				buf := make([]byte, chunk)
				start := clock.Now()
				if err := clients[i].Read(ctx, blob, v, buf, uint64(i)*chunk); err != nil {
					return err
				}
				elapsed[i] = (clock.Now() - start).Seconds()
				return nil
			})
			for _, c := range clients {
				c.Close()
			}
			if err != nil {
				return fmt.Errorf("%d readers: %w", readers, err)
			}
			var sum float64
			for _, el := range elapsed {
				sum += float64(chunk) / el
			}
			out = append(out, sum/float64(readers)*simScale/mb)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "fig2b 64 KB pages, %d providers: MB/s per reader at %v readers: %v\n", providers, readerCounts, out)
	return out, nil
}

// writers is A1: the aggregate throughput of N concurrent appenders of
// 1 MB chunks to one blob of 64 KB pages under the paper's border-set
// weaving (§4.2, "Why WRITEs and APPENDs may proceed in parallel"). The
// baseline to read it against — each writer waiting for its
// predecessor's publication before weaving — is a recorded series in
// BENCH_baselines.json, not a mode of the client. It returns the MB/s
// per writer count.
func writers(w io.Writer, paper bool) ([]float64, error) {
	providers, writerCounts, appends := 8, []int{1, 4}, 4
	if paper {
		providers, writerCounts, appends = 50, []int{1, 2, 4, 8, 16, 32}, 8
	}
	const chunk = 1 << 20 / simScale
	var out []float64
	for _, n := range writerCounts {
		err := simRun(providers, Config{}, func(clock *vclock.Virtual, _ *simnet.Net, cl *Cluster) error {
			ctx := context.Background()
			clients := make([]*client.Client, n)
			for i := range clients {
				var err error
				if clients[i], err = coldClient(cl, fmt.Sprintf("writer%d", i), readOff); err != nil {
					return err
				}
			}
			blob, err := clients[0].Create(ctx, simPage)
			if err != nil {
				return err
			}
			data := make([]byte, chunk)
			start := clock.Now()
			if err := vclock.Parallel(clock, n, func(i int) error {
				var v wire.Version
				var err error
				for range appends {
					if v, err = clients[i].Append(ctx, blob, data); err != nil {
						return err
					}
				}
				return clients[i].Sync(ctx, blob, v)
			}); err != nil {
				return err
			}
			total := float64(n*appends) * float64(chunk)
			out = append(out, total*simScale/(clock.Now()-start).Seconds()/mb)
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("%d writers: %w", n, err)
		}
	}
	fmt.Fprintf(w, "writers 64 KB pages, %d providers, %d x 1 MB appends each: aggregate MB/s at %v writers: %v\n",
		providers, appends, writerCounts, out)
	return out, nil
}

// space is A2: the storage that keeping every snapshot costs, against
// one full copy per version (§4.3, "Efficient use of storage space"). A
// blob of 4 KB pages is overwritten in runs of pages at seeded offsets,
// and the providers' page bytes and the metadata nodes' tree-node bytes
// are summed. Nothing here is timed, so it runs unscaled on the
// in-process transport, whose short provider addresses are what a leaf
// node's bytes count. It returns the saving over the naive copies.
func space(w io.Writer, paper bool) (float64, error) {
	blobPages, overwrites, overwritePages := uint64(512), 20, uint64(16)
	if paper {
		blobPages, overwrites, overwritePages = 4096, 50, 64
	}
	const ps = 4 << 10
	net := transport.NewInproc()
	defer net.Close()
	cl, err := StartInproc(net, vclock.NewReal(), Config{DataProviders: 8, MetaProviders: 8})
	if err != nil {
		return 0, err
	}
	defer cl.Close()
	c, err := cl.NewClient("")
	if err != nil {
		return 0, err
	}
	ctx := context.Background()
	blob, err := c.Create(ctx, ps)
	if err != nil {
		return 0, err
	}
	blobBytes := blobPages * ps
	if _, err := c.Append(ctx, blob, make([]byte, blobBytes)); err != nil {
		return 0, err
	}
	x := uint64(42) // seeds the xorshift64 below
	x = x*0x9E3779B97F4A7C15 + 1
	for i := range overwrites {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		start := x % (blobPages - overwritePages + 1)
		if _, err := c.Write(ctx, blob, make([]byte, overwritePages*ps), start*ps); err != nil {
			return 0, fmt.Errorf("overwrite %d: %w", i, err)
		}
	}
	v, _, err := c.Recent(ctx, blob)
	if err != nil {
		return 0, err
	}
	if err := c.Sync(ctx, blob, v); err != nil {
		return 0, err
	}
	series := func(name, role string) uint64 { return uint64(obs.Value(cl, name, "role", role)) }
	pages, pageBytes := series("store_keys", roleData), series("store_value_bytes", roleData)
	nodes, nodeBytes := series("store_keys", roleMeta), series("store_value_bytes", roleMeta)
	versions := uint64(overwrites) + 1
	naive := versions * blobBytes
	saving := float64(naive) / float64(pageBytes+nodeBytes)
	fmt.Fprintf(w, "space %d versions of a %d-page blob, %d-page overwrites: clients wrote %d B; "+
		"%d pages %d B, %d tree nodes %d B; %d full copies %d B, %vx the stored bytes\n",
		versions, blobPages, overwritePages, blobBytes+uint64(overwrites)*overwritePages*ps,
		pages, pageBytes, nodes, nodeBytes, versions, naive, saving)
	return saving, nil
}

// replicated is one replication factor's A5 row.
type replicated struct {
	appendMBps, readMBps float64
	survives             bool
}

// replication is A5: the page-replication extension (the paper's stated
// future work, §3.2) at each replication factor R. One writer appends 16
// chunks (its bandwidth should be about 1/R of the unreplicated one: its
// uplink carries R copies), then readers co-deployed with the providers
// read disjoint parts at once (MB/s per reader), then one data provider
// is killed and a full read tells whether the blob survived.
func replication(w io.Writer, paper bool) ([]replicated, error) {
	providers, factors, appendBytes, readers := 6, []int{1, 2}, uint64(4<<20), 3
	if paper {
		providers, factors, appendBytes, readers = 16, []int{1, 2, 3}, 32<<20, 8
	}
	const chunks = 16
	total := appendBytes / simScale
	var out []replicated
	for _, r := range factors {
		var row replicated
		err := simRun(providers, Config{PageReplication: r}, func(clock *vclock.Virtual, _ *simnet.Net, cl *Cluster) error {
			ctx := context.Background()
			wr, err := coldClient(cl, "writer", readOff)
			if err != nil {
				return err
			}
			blob, err := wr.Create(ctx, simPage)
			if err != nil {
				return err
			}
			data := make([]byte, total/chunks)
			start := clock.Now()
			var last wire.Version
			for range chunks {
				if last, err = wr.Append(ctx, blob, data); err != nil {
					return err
				}
			}
			if err := wr.Sync(ctx, blob, last); err != nil {
				return err
			}
			row.appendMBps = float64(total) * simScale / (clock.Now() - start).Seconds() / mb

			size := uint64(len(data)) * chunks
			part := size / uint64(readers)
			rcs := make([]*client.Client, readers)
			for i := range rcs {
				if rcs[i], err = coldClient(cl, fmt.Sprintf("node%d", i%providers), readOff); err != nil {
					return err
				}
			}
			start = clock.Now()
			if err := vclock.Parallel(clock, readers, func(i int) error {
				return rcs[i].Read(ctx, blob, last, make([]byte, part), uint64(i)*part)
			}); err != nil {
				return err
			}
			row.readMBps = float64(size) * simScale / (clock.Now() - start).Seconds() / mb / float64(readers)

			if err := cl.Kill(roleData, 0); err != nil {
				return err
			}
			row.survives = rcs[0].Read(ctx, blob, last, make([]byte, size), 0) == nil
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("%d replicas: %w", r, err)
		}
		fmt.Fprintf(w, "replication %d providers, %d readers: %d replicas, append %v MB/s, read %v MB/s, survives a provider loss: %v\n",
			providers, readers, r, row.appendMBps, row.readMBps, row.survives)
		out = append(out, row)
	}
	return out, nil
}

// readCell is one A11 measurement: a read-tuning scenario at one reader
// count. The times are virtual but do not repeat exactly; the counts —
// the client's series of the same names — do.
type readCell struct {
	readers                                                        int
	scenario                                                       string
	mbps, p99ms                                                    float64
	fetchRPCs, pagesFetched, hedgesFired, hedgesWon, coalescedRPCs uint64
}

// readPath is A11: the production read path — the client page cache with
// single-flight dedup, hedged replica requests and range coalescing —
// turned on mechanism by mechanism under high reader concurrency over a
// blob of 64 KB pages replicated twice. The readers of a cell share one
// fresh client on a node whose link grows with their count (a big
// application server: the providers, not its downlink, are under test);
// each scans the blob twice in chunks from a rotated start (the second
// scan re-reads hot pages). The two "slow" scenarios cut one provider's
// link to a twentieth and compare the latency tail with hedging off and
// on. It prints each cell's counts.
func readPath(w io.Writer, paper bool) ([]readCell, error) {
	providers, blobPages, chunkPages, readerCounts := 8, uint64(64), uint64(16), []int{16}
	if paper {
		providers, blobPages, chunkPages, readerCounts = 16, 256, 32, []int{64, 256}
	}
	var out []readCell
	err := simRun(providers, Config{PageReplication: 2}, func(clock *vclock.Virtual, net *simnet.Net, cl *Cluster) error {
		ctx := context.Background()
		wr, err := coldClient(cl, "writer", readOff)
		if err != nil {
			return err
		}
		blob, err := wr.Create(ctx, simPage)
		if err != nil {
			return err
		}
		data := make([]byte, chunkPages*simPage)
		var v wire.Version
		for p := uint64(0); p < blobPages; p += chunkPages {
			if v, err = wr.Append(ctx, blob, data); err != nil {
				return err
			}
		}
		if err := wr.Sync(ctx, blob, v); err != nil {
			return err
		}
		for _, readers := range readerCounts {
			fmt.Fprintf(w, "read %d providers, %d-page blob, %d readers; fetch RPCs, pages fetched, hedges fired and won, coalesced RPCs",
				providers, blobPages, readers)
			sep := ":"
			for _, sc := range []struct {
				name string
				read client.ReadTuning
				slow bool
			}{
				{"baseline", readOff, false},
				{"+cache", client.ReadTuning{HedgeDelay: -1, CoalescePages: -1}, false},
				{"+cache+coalesce", client.ReadTuning{HedgeDelay: -1}, false},
				{"slow, no hedge", readOff, true},
				{"slow, hedged", client.ReadTuning{PageCacheBytes: -1, CoalescePages: -1}, true},
			} {
				cell, err := readScenario(clock, net, cl, blob, v, blobPages, chunkPages, readers, sc.read, sc.slow)
				if err != nil {
					return fmt.Errorf("%d readers, %s: %w", readers, sc.name, err)
				}
				cell.readers, cell.scenario = readers, sc.name
				fmt.Fprintf(w, "%s %s %v", sep, sc.name,
					[]uint64{cell.fetchRPCs, cell.pagesFetched, cell.hedgesFired, cell.hedgesWon, cell.coalescedRPCs})
				sep = ";"
				out = append(out, cell)
			}
			fmt.Fprintln(w)
		}
		return nil
	})
	return out, err
}

// readScenario measures one A11 cell on a fresh client.
func readScenario(clock *vclock.Virtual, net *simnet.Net, cl *Cluster, blob wire.BlobID, v wire.Version,
	blobPages, chunkPages uint64, readers int, read client.ReadTuning, slow bool) (readCell, error) {
	const scans = 2
	net.SetNodeBandwidth("client0", simLinkBps*float64(readers), simLinkBps*float64(readers))
	if slow {
		net.SetNodeBandwidth("node0", simLinkBps/20, simLinkBps/20)
		defer net.SetNodeBandwidth("node0", simLinkBps, simLinkBps)
	}
	c, err := coldClient(cl, "client0", read)
	if err != nil {
		return readCell{}, err
	}
	defer c.Close()
	ctx := context.Background()
	chunks := int(blobPages / chunkPages)
	lats := make([][]time.Duration, readers)
	start := clock.Now()
	err = vclock.Parallel(clock, readers, func(i int) error {
		// Stagger the starts by distinct virtual microseconds: real readers
		// never arrive at the same nanosecond, and symmetric same-instant
		// races are the one thing the virtual clock cannot order
		// reproducibly.
		if err := clock.Sleep(time.Duration(i) * time.Microsecond); err != nil {
			return err
		}
		buf := make([]byte, chunkPages*simPage)
		for range scans {
			for k := range chunks {
				// Rotated starts: the readers hit the providers from
				// staggered offsets, not in lockstep.
				page := uint64((i+k)%chunks) * chunkPages
				t0 := clock.Now()
				if err := c.Read(ctx, blob, v, buf, page*simPage); err != nil {
					return err
				}
				lats[i] = append(lats[i], clock.Now()-t0)
			}
		}
		return nil
	})
	if err != nil {
		return readCell{}, err
	}
	elapsed := (clock.Now() - start).Seconds()
	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	slices.Sort(all)
	total := float64(readers) * scans * float64(blobPages*simPage)
	count := func(name string) uint64 { return uint64(obs.Value(c, "client_"+name+"_total")) }
	return readCell{
		mbps:          total * simScale / elapsed / mb,
		p99ms:         float64(all[int(0.99*float64(len(all)-1))]) / float64(time.Millisecond),
		fetchRPCs:     count("fetch_rpcs"),
		pagesFetched:  count("pages_fetched"),
		hedgesFired:   count("hedges_fired"),
		hedgesWon:     count("hedges_won"),
		coalescedRPCs: count("coalesced_rpcs"),
	}, nil
}

// experiments lists every experiment at its pinned size, for
// TestSimRowsRepeat.
var experiments = []struct {
	name string
	run  func(io.Writer) error
}{
	{"calibrate", pinned(calibrate)},
	{"fig2a", pinned(fig2a)},
	{"fig2b", pinned(fig2b)},
	{"writers", pinned(writers)},
	{"space", pinned(space)},
	{"replication", pinned(replication)},
	{"read", pinned(readPath)},
}

func pinned[T any](run func(io.Writer, bool) (T, error)) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := run(w, false)
		return err
	}
}

// pinnedRows runs an experiment at its pinned size, holds what it prints
// against testdata/sim/<name>.golden (or rewrites that file under
// -update) and returns its result for the test's own assertions.
func pinnedRows[T any](t *testing.T, name string, run func(io.Writer, bool) (T, error)) T {
	t.Helper()
	var rows strings.Builder
	res, err := run(&rows, false)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "sim", name+".golden")
	if *update {
		if err := os.WriteFile(path, []byte(rows.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return res
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if rows.String() != string(want) {
		t.Errorf("%s moved (go test -run '^%s$' -update rewrites it)\ngot:\n%s\nwant:\n%s", path, t.Name(), rows.String(), want)
	}
	return res
}

// TestSimRowsRepeat runs every pinned row twice in one process: both runs
// must print the same bytes, so nothing one run leaves behind — pooled
// buffers, caches, goroutines — moves the next. The race detector adds
// nothing to that and makes the two runs cost 20 s; each row's own test
// still meets its golden file under it.
func TestSimRowsRepeat(t *testing.T) {
	if raceEnabled {
		t.Skip("in-process repeats need no race detector; the golden tests run under it")
	}
	run := func() string {
		var rows strings.Builder
		for _, e := range experiments {
			if err := e.run(&rows); err != nil {
				t.Fatalf("%s: %v", e.name, err)
			}
		}
		return rows.String()
	}
	if first, second := run(), run(); first != second {
		t.Fatalf("the pinned rows did not repeat:\nfirst:\n%s\nsecond:\n%s", first, second)
	}
}

func TestCalibrationMatchesPaperLink(t *testing.T) {
	c := pinnedRows(t, "calibrate", calibrate)
	if c.mbps < 117 || c.mbps > 117.5 || c.oneWayMS < 0.1 || c.oneWayMS > 0.101 {
		t.Fatalf("simulated link %v MB/s, %v ms one way; the paper measured 117.5 MB/s, 0.1 ms", c.mbps, c.oneWayMS)
	}
}

func TestFig2aSmall(t *testing.T) {
	pts := pinnedRows(t, "fig2a", fig2a)
	if len(pts) != 6 {
		t.Fatalf("points = %d, want 6 (32 to 192 pages)", len(pts))
	}
	for i, bw := range pts {
		// Sustained bandwidth: well above half the link, never above it.
		if bw < 40 || bw > 118 {
			t.Errorf("append bandwidth at %d pages = %.1f MB/s, implausible", 32*(i+1), bw)
		}
	}
}

func TestFig2bSmall(t *testing.T) {
	pts := pinnedRows(t, "fig2b", fig2b)
	if len(pts) != 3 {
		t.Fatalf("points = %d, want 3", len(pts))
	}
	single, most := pts[0], pts[len(pts)-1]
	if single < 40 || single > 118 {
		t.Errorf("single reader bandwidth %.1f MB/s implausible", single)
	}
	if most > single*1.1 {
		t.Errorf("read bandwidth grew under concurrency: %.1f -> %.1f", single, most)
	}
}

// serializedWriters4 is the 4-writer aggregate (MB/s) of the
// serialized-metadata baseline at the pinned writers row's configuration
// (8 providers, 4 x 1 MB appends per writer), recorded in
// BENCH_baselines.json (a1_writers_small); no code in the tree can
// produce it. Border-set weaving gives 334.7 there.
const serializedWriters4 = 279.1

func TestWritersAblationSmall(t *testing.T) {
	pts := pinnedRows(t, "writers", writers)
	if len(pts) != 2 {
		t.Fatalf("points = %d, want 2", len(pts))
	}
	w1, w4 := pts[0], pts[1]
	// With 4 writers the paper's mechanism must beat the serialized
	// baseline on aggregate throughput.
	if !(w4 > serializedWriters4) {
		t.Errorf("border-set %.1f MB/s not better than serialized %.1f MB/s", w4, serializedWriters4)
	}
	// And concurrency must help the paper's mode.
	if w4 <= w1*1.2 {
		t.Errorf("aggregate did not scale: 1 writer %.1f, 4 writers %.1f", w1, w4)
	}
}

func TestSpaceAblation(t *testing.T) {
	// 21 copies of the blob against the bytes the overwrites added.
	if saving := pinnedRows(t, "space", space); saving < 10 {
		t.Fatalf("versioning saves %.1fx over a copy per version, want >= 10x", saving)
	}
}

func TestReplicationAblationSmall(t *testing.T) {
	rows := pinnedRows(t, "replication", replication)
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	// R=1: paper layout, provider loss is fatal. R=2: loss survivable.
	if rows[0].survives {
		t.Error("R=1 survived a provider loss")
	}
	if !rows[1].survives {
		t.Error("R=2 did not survive a provider loss")
	}
	// Replication costs write bandwidth: R=2 must be measurably slower.
	if a1, a2 := rows[0].appendMBps, rows[1].appendMBps; a2 >= a1 {
		t.Errorf("append bandwidth did not drop with replication: R=1 %.1f, R=2 %.1f", a1, a2)
	}
}

func TestReadPathAblation(t *testing.T) {
	const blobPages, readers, scans = 64, 16, 2
	cells := pinnedRows(t, "read", readPath)
	get := func(scenario string) readCell {
		for _, c := range cells {
			if c.scenario == scenario {
				return c
			}
		}
		t.Fatalf("no %q cell", scenario)
		return readCell{}
	}
	baseline, cached, coalesced := get("baseline"), get("+cache"), get("+cache+coalesce")
	slow, hedged := get("slow, no hedge"), get("slow, hedged")
	dup := func(c readCell) float64 { return float64(c.pagesFetched)/blobPages - 1 }

	// The headline claim: with the shared page cache and single-flight
	// on, a hot working set crosses the network once — duplicate-fetch
	// ratio ~0 — while the paper's path refetches every page for every
	// reader and scan (ratio readers*scans - 1).
	if dup(cached) > 0.1 {
		t.Errorf("cached dup ratio = %.2f, want ~0", dup(cached))
	}
	if want := float64(readers*scans) - 1; dup(baseline) < want-0.01 {
		t.Errorf("baseline dup ratio = %.2f, want %.2f (every reader fetches every page)", dup(baseline), want)
	}
	if cached.mbps < 2*baseline.mbps {
		t.Errorf("cache throughput %.1f MB/s not >= 2x baseline %.1f", cached.mbps, baseline.mbps)
	}

	// Coalescing batches the misses: strictly fewer fetch RPCs than
	// pages fetched, with multi-page batches reported.
	if coalesced.coalescedRPCs == 0 {
		t.Error("coalescing scenario reports no coalesced RPCs")
	}
	if coalesced.fetchRPCs >= coalesced.pagesFetched {
		t.Errorf("coalesced RPCs %d not below pages fetched %d", coalesced.fetchRPCs, coalesced.pagesFetched)
	}

	// Hedging under an injected slow replica: the tail drops markedly, at
	// bounded extra cost (at most one extra RPC per fetched page), with
	// hedges actually firing.
	if hedged.hedgesFired == 0 || hedged.hedgesWon == 0 {
		t.Errorf("hedges fired/won = %d/%d, want both > 0", hedged.hedgesFired, hedged.hedgesWon)
	}
	if hedged.p99ms >= 0.75*slow.p99ms {
		t.Errorf("hedged p99 %.2f ms not at least 25%% below unhedged %.2f ms", hedged.p99ms, slow.p99ms)
	}
	if hedged.fetchRPCs > 2*slow.fetchRPCs {
		t.Errorf("hedged fetch RPCs %d more than double the unhedged %d", hedged.fetchRPCs, slow.fetchRPCs)
	}
}

// benchSim runs an experiment as a benchmark, at its pinned and its paper
// size; report turns its result into metrics. The first iteration logs
// the rows the experiment printed.
func benchSim[T any](b *testing.B, run func(io.Writer, bool) (T, error), report func(*testing.B, T)) {
	for _, size := range []string{"pinned", "paper"} {
		b.Run(size, func(b *testing.B) {
			for i := range b.N {
				var rows strings.Builder
				res, err := run(&rows, size == "paper")
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.Log(rows.String())
				}
				report(b, res)
			}
		})
	}
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func BenchmarkSimCalibrate(b *testing.B) {
	benchSim(b, calibrate, func(b *testing.B, c calibration) {
		b.ReportMetric(c.mbps, "MB/s")
		b.ReportMetric(c.oneWayMS, "one-way-ms")
	})
}

func BenchmarkSimFig2a(b *testing.B) {
	benchSim(b, fig2a, func(b *testing.B, pts []float64) { b.ReportMetric(mean(pts), "mean-MB/s") })
}

func BenchmarkSimFig2b(b *testing.B) {
	benchSim(b, fig2b, func(b *testing.B, pts []float64) {
		b.ReportMetric(pts[0], "1-reader-MB/s")
		b.ReportMetric(pts[len(pts)-1], "most-readers-MB/s")
	})
}

func BenchmarkSimWriters(b *testing.B) {
	benchSim(b, writers, func(b *testing.B, pts []float64) {
		b.ReportMetric(pts[len(pts)-1], "most-writers-MB/s")
	})
}

func BenchmarkSimSpace(b *testing.B) {
	benchSim(b, space, func(b *testing.B, saving float64) { b.ReportMetric(saving, "saving-x") })
}

func BenchmarkSimReplication(b *testing.B) {
	benchSim(b, replication, func(b *testing.B, rows []replicated) {
		for i, r := range rows {
			b.ReportMetric(r.appendMBps, fmt.Sprintf("R%d-append-MB/s", i+1))
		}
	})
}

func BenchmarkSimReadPath(b *testing.B) {
	benchSim(b, readPath, func(b *testing.B, cells []readCell) {
		// The times the rows leave out.
		for _, c := range cells {
			name := fmt.Sprintf("%dr-%s", c.readers, strings.NewReplacer(", ", "-", " ", "-").Replace(c.scenario))
			b.ReportMetric(c.mbps, name+"-MB/s")
			b.ReportMetric(c.p99ms, name+"-p99-ms")
		}
	})
}
