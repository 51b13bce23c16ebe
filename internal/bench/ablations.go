package bench

import (
	"context"
	"fmt"
	"io"

	"blobseer/internal/client"
	"blobseer/internal/cluster"
	"blobseer/internal/simnet"
	"blobseer/internal/transport"
	"blobseer/internal/vclock"
	"blobseer/internal/wire"
	"blobseer/internal/workload"
)

// Table is a small printable result table for the ablation experiments.
type Table struct {
	Name   string
	Header []string
	Rows   [][]string
}

// Fprint renders the table as aligned text.
func (t Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "## %s\n", t.Name)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	printRow := func(cells []string) {
		for i, cell := range cells {
			fmt.Fprintf(w, "%-*s  ", widths[i], cell)
		}
		fmt.Fprintln(w)
	}
	printRow(t.Header)
	for _, row := range t.Rows {
		printRow(row)
	}
}

// WritersConfig parameterizes the A1 experiment: aggregate throughput of
// N concurrent appenders to one blob under the paper's border-set
// weaving (§4.2, "Why WRITEs and APPENDs may proceed in parallel"). The
// baseline to read it against — every writer waiting for its
// predecessor's publication before weaving its metadata — is a recorded
// series in BENCH_baselines.json, not a mode of the client.
type WritersConfig struct {
	Sim SimParams
	// PageSize in paper-unit bytes (default 64 KB).
	PageSize uint64
	// Providers (default 50).
	Providers int
	// WriterCounts (default 1,2,4,8,16,32).
	WriterCounts []int
	// AppendsPerWriter (default 8) of ChunkBytes each (default 1 MB).
	AppendsPerWriter int
	ChunkBytes       uint64
}

func (c *WritersConfig) fill() {
	c.Sim.fill()
	if c.PageSize == 0 {
		c.PageSize = 64 << 10
	}
	if c.Providers == 0 {
		c.Providers = 50
	}
	if len(c.WriterCounts) == 0 {
		c.WriterCounts = []int{1, 2, 4, 8, 16, 32}
	}
	if c.AppendsPerWriter == 0 {
		c.AppendsPerWriter = 8
	}
	if c.ChunkBytes == 0 {
		c.ChunkBytes = 1 << 20
	}
}

// RunWriters measures aggregate append throughput vs writer count.
func RunWriters(cfg WritersConfig) (Series, error) {
	cfg.fill()
	s := Series{
		Name:   "aggregate append throughput — border-set weaving (paper)",
		XLabel: "writers",
		YLabel: "aggregate MB/s",
	}
	for _, writers := range cfg.WriterCounts {
		bw, err := runWritersOne(cfg, writers)
		if err != nil {
			return Series{}, fmt.Errorf("writers=%d: %w", writers, err)
		}
		s.Points = append(s.Points, Point{X: float64(writers), Y: bw})
	}
	return s, nil
}

func runWritersOne(cfg WritersConfig, writers int) (float64, error) {
	scale := cfg.Sim.Scale
	simPS := cfg.PageSize / scale
	simChunk := cfg.ChunkBytes / scale
	var aggregate float64
	err := runSim(cfg.Sim, cfg.Providers, clusterDefaults(), func(e *env) error {
		ctx := context.Background()
		clients := make([]*client.Client, writers)
		for i := range clients {
			c, err := e.cl.NewClient(fmt.Sprintf("writer%d", i))
			if err != nil {
				return err
			}
			clients[i] = c
		}
		blob, err := clients[0].Create(ctx, uint32(simPS))
		if err != nil {
			return err
		}
		chunk := workload.Chunk(11, int(simChunk))
		start := e.clock.Now()
		err = vclock.Parallel(e.clock, writers, func(i int) error {
			var v wire.Version
			var err error
			for k := 0; k < cfg.AppendsPerWriter; k++ {
				if v, err = clients[i].Append(ctx, blob, chunk); err != nil {
					return err
				}
			}
			return clients[i].Sync(ctx, blob, v)
		})
		if err != nil {
			return err
		}
		elapsed := (e.clock.Now() - start).Seconds()
		total := float64(writers*cfg.AppendsPerWriter) * float64(simChunk)
		aggregate = total * float64(scale) / elapsed / MB
		return nil
	})
	return aggregate, err
}

// SpaceConfig parameterizes the A2 ablation: storage consumed by keeping
// every snapshot, versus the naive baseline of one full copy per version
// (§4.3, "Efficient use of storage space").
type SpaceConfig struct {
	// PageSize in bytes (default 4 KB — unscaled; this experiment has no
	// network timing component and runs on the in-process transport).
	PageSize uint64
	// BlobPages is the initial blob size in pages (default 4096).
	BlobPages uint64
	// Overwrites is the number of versions created on top (default 50).
	Overwrites int
	// OverwritePages is the size of each overwrite (default 64 pages).
	OverwritePages uint64
}

func (c *SpaceConfig) fill() {
	if c.PageSize == 0 {
		c.PageSize = 4 << 10
	}
	if c.BlobPages == 0 {
		c.BlobPages = 4096
	}
	if c.Overwrites == 0 {
		c.Overwrites = 50
	}
	if c.OverwritePages == 0 {
		c.OverwritePages = 64
	}
}

// RunSpace measures physical page bytes and metadata bytes after a
// sequence of overwrites, against the naive copy-per-version baseline.
func RunSpace(cfg SpaceConfig) (Table, error) {
	cfg.fill()
	net := transport.NewInproc()
	defer net.Close()
	sched := vclock.NewReal()
	cl, err := cluster.StartInproc(net, sched, cluster.Config{
		DataProviders: 8, MetaProviders: 8,
	})
	if err != nil {
		return Table{}, err
	}
	defer cl.Close()
	c, err := cl.NewClient("")
	if err != nil {
		return Table{}, err
	}
	ctx := context.Background()
	blob, err := c.Create(ctx, uint32(cfg.PageSize))
	if err != nil {
		return Table{}, err
	}
	blobBytes := cfg.BlobPages * cfg.PageSize
	if _, err := c.Append(ctx, blob, workload.Chunk(1, int(blobBytes))); err != nil {
		return Table{}, err
	}
	rng := newXorShift(42)
	for i := 0; i < cfg.Overwrites; i++ {
		maxStart := cfg.BlobPages - cfg.OverwritePages
		startPage := rng.next() % (maxStart + 1)
		data := workload.Chunk(uint64(i+2), int(cfg.OverwritePages*cfg.PageSize))
		if _, err := c.Write(ctx, blob, data, startPage*cfg.PageSize); err != nil {
			return Table{}, fmt.Errorf("overwrite %d: %w", i, err)
		}
	}
	v, _, err := c.Recent(ctx, blob)
	if err != nil {
		return Table{}, err
	}
	if err := c.Sync(ctx, blob, v); err != nil {
		return Table{}, err
	}

	var pageBytes, pageCount uint64
	for _, p := range cl.Providers {
		n, b := p.Store().Stats()
		pageCount += n
		pageBytes += b
	}
	var metaBytes, metaKeys uint64
	for _, n := range cl.MetaNodes {
		k, b := n.Stats()
		metaKeys += k
		metaBytes += b
	}
	versions := uint64(cfg.Overwrites) + 1
	naive := blobBytes * versions
	logicalWritten := blobBytes + uint64(cfg.Overwrites)*cfg.OverwritePages*cfg.PageSize

	mb := func(b uint64) string { return fmt.Sprintf("%.1f", float64(b)/MB) }
	return Table{
		Name: fmt.Sprintf("versioning space overhead — %d versions of a %d MB blob, %d-page overwrites",
			versions, blobBytes/(1<<20), cfg.OverwritePages),
		Header: []string{"quantity", "MB", "notes"},
		Rows: [][]string{
			{"logical blob size", mb(blobBytes), "one snapshot"},
			{"bytes written by clients", mb(logicalWritten), "initial write + all overwrites"},
			{"BlobSeer page storage", mb(pageBytes), fmt.Sprintf("%d pages, all versions readable", pageCount)},
			{"BlobSeer metadata storage", mb(metaBytes), fmt.Sprintf("%d tree nodes", metaKeys)},
			{"naive copy-per-version", mb(naive), fmt.Sprintf("%d full copies", versions)},
			{"saving vs naive", fmt.Sprintf("%.1fx", float64(naive)/float64(pageBytes+metaBytes)), ""},
		},
	}, nil
}

// xorShift is a tiny deterministic RNG for the space experiment.
type xorShift struct{ x uint64 }

func newXorShift(seed uint64) *xorShift { return &xorShift{x: seed*0x9E3779B97F4A7C15 + 1} }

func (r *xorShift) next() uint64 {
	r.x ^= r.x << 13
	r.x ^= r.x >> 7
	r.x ^= r.x << 17
	return r.x
}

// RunCalibration verifies the simulated network reproduces §5's measured
// link characteristics: 117.5 MB/s TCP throughput and 0.1 ms latency.
func RunCalibration(p SimParams) (Table, error) {
	p.fill()
	clock := vclock.NewVirtual(0)
	net := simnet.New(clock, p.netConfig())
	var bw, rtt float64
	var mErr error
	err := clock.Run(func() {
		b, r, err := simnet.MeasureLink(clock, net, 64<<20/int(p.Scale))
		if err != nil {
			mErr = err
			return
		}
		bw, rtt = b*float64(p.Scale), r
	})
	if err == nil {
		err = mErr
	}
	if err != nil {
		return Table{}, err
	}
	return Table{
		Name:   "link calibration vs paper (§5)",
		Header: []string{"quantity", "paper", "simulated"},
		Rows: [][]string{
			{"TCP throughput (MB/s)", "117.5", fmt.Sprintf("%.1f", bw/MB)},
			{"one-way latency (ms)", "0.1", fmt.Sprintf("%.3f", rtt/2*1e3)},
		},
	}, nil
}
