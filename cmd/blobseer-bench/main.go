// Command blobseer-bench regenerates the paper's evaluation figures and
// the ablation experiments of README.md ("Benchmarks") on the simulated
// Grid'5000 substrate. The deleted experiments' last numbers (A1's
// serialized series, A6, A8, A9, A10) are frozen in BENCH_baselines.json.
//
// Usage:
//
//	blobseer-bench -exp fig2a      # Figure 2(a): append throughput vs blob size
//	blobseer-bench -exp fig2b      # Figure 2(b): read throughput vs concurrent readers
//	blobseer-bench -exp calibrate  # T1: link calibration against §5's measured figures
//	blobseer-bench -exp writers    # A1: aggregate throughput of concurrent appenders
//	blobseer-bench -exp space      # A2: versioning storage overhead vs naive copies
//	blobseer-bench -exp replication # A5: page replication cost/benefit (extension)
//	blobseer-bench -exp recovery   # A7: restart cost, WAL compaction on/off
//	blobseer-bench -exp read       # A11: production read path — page cache, hedged replicas, coalescing
//	blobseer-bench -exp all        # everything above
//
// -exp also accepts a comma-separated list (`-exp recovery,read`),
// which is how CI's bench-smoke job runs the fast ablations in one go.
//
// The -quick flag shrinks every experiment (fewer providers, smaller
// blobs) for a fast smoke run; without it the experiments use the paper's
// deployment sizes (175 nodes, multi-GB blobs) and take a few minutes.
//
// With -json DIR, every experiment additionally writes its raw result as
// DIR/BENCH_<exp>.json, so CI can archive the perf trajectory per push.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"blobseer/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "experiment, or comma-separated list: fig2a, fig2b, calibrate, writers, space, replication, recovery, read, all")
	quick := flag.Bool("quick", false, "shrink experiments for a fast smoke run")
	scale := flag.Uint64("scale", 64, "data/bandwidth scale divisor (1 = full paper scale)")
	jsonDir := flag.String("json", "", "write each experiment's raw result as BENCH_<exp>.json into this directory")
	flag.Parse()

	known := map[string]bool{
		"all": true, "calibrate": true, "fig2a": true, "fig2b": true, "writers": true,
		"space": true, "recovery": true, "replication": true, "read": true,
	}
	selected := map[string]bool{}
	for _, name := range strings.Split(*exp, ",") {
		if name = strings.TrimSpace(name); name == "" {
			continue
		}
		if !known[name] {
			// A typo in a list must not silently drop an experiment (CI
			// would keep passing while an ablation vanished from the
			// artifacts).
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", name)
			os.Exit(2)
		}
		selected[name] = true
	}
	if len(selected) == 0 {
		fmt.Fprintln(os.Stderr, "no experiment selected")
		os.Exit(2)
	}

	writeJSON := func(name string, v any) error {
		if *jsonDir == "" {
			return nil
		}
		if err := os.MkdirAll(*jsonDir, 0o755); err != nil {
			return err
		}
		raw, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(*jsonDir, "BENCH_"+name+".json"), append(raw, '\n'), 0o644)
	}

	run := func(name string, fn func() (any, error)) {
		if !selected["all"] && !selected[name] {
			return
		}
		fmt.Printf("# %s\n", name)
		start := time.Now()
		result, err := fn()
		if err == nil {
			err = writeJSON(name, result)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("# (%s wall time)\n\n", time.Since(start).Round(time.Millisecond))
	}

	run("calibrate", func() (any, error) {
		tab, err := bench.RunCalibration(bench.SimParams{Scale: *scale})
		if err != nil {
			return nil, err
		}
		tab.Fprint(os.Stdout)
		return tab, nil
	})

	run("fig2a", func() (any, error) {
		cfg := bench.Fig2aConfig{Sim: bench.SimParams{Scale: *scale}}
		if *quick {
			cfg.ProviderCounts = []int{16}
			cfg.TotalPages = 320
		}
		series, err := bench.RunFig2a(cfg)
		if err != nil {
			return nil, err
		}
		fmt.Println("Figure 2(a): append throughput as the blob grows")
		for _, s := range series {
			s.Fprint(os.Stdout)
		}
		return series, nil
	})

	run("fig2b", func() (any, error) {
		cfg := bench.Fig2bConfig{Sim: bench.SimParams{Scale: *scale}}
		if *quick {
			cfg.Providers = 16
			cfg.BlobBytes = 1 << 30
			cfg.ReaderCounts = []int{1, 8, 16}
		}
		s, err := bench.RunFig2b(cfg)
		if err != nil {
			return nil, err
		}
		fmt.Println("Figure 2(b): read throughput under concurrency")
		s.Fprint(os.Stdout)
		return s, nil
	})

	run("writers", func() (any, error) {
		cfg := bench.WritersConfig{Sim: bench.SimParams{Scale: *scale}}
		if *quick {
			cfg.Providers = 16
			cfg.WriterCounts = []int{1, 4, 16}
			cfg.AppendsPerWriter = 4
		}
		s, err := bench.RunWriters(cfg)
		if err != nil {
			return nil, err
		}
		fmt.Println("A1: concurrent appenders (serialized-metadata baseline: BENCH_baselines.json)")
		s.Fprint(os.Stdout)
		return s, nil
	})

	run("space", func() (any, error) {
		cfg := bench.SpaceConfig{}
		if *quick {
			cfg.BlobPages = 1024
			cfg.Overwrites = 25
		}
		tab, err := bench.RunSpace(cfg)
		if err != nil {
			return nil, err
		}
		fmt.Println("Ablation A2: versioning storage overhead")
		tab.Fprint(os.Stdout)
		return tab, nil
	})

	run("recovery", func() (any, error) {
		dir, err := os.MkdirTemp("", "blobseer-recovery-bench")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		cfg := bench.RecoveryConfig{WALDir: dir}
		if *quick {
			cfg.Updates = 1000
			cfg.CheckpointEvery = 200
		}
		res, err := bench.RunRecovery(cfg)
		if err != nil {
			return nil, err
		}
		fmt.Println("Ablation A7: bounded recovery — segmented WAL + snapshot/compaction")
		res.Table().Fprint(os.Stdout)
		return res, nil
	})

	run("read", func() (any, error) {
		cfg := bench.ReadPathConfig{Sim: bench.SimParams{Scale: *scale}}
		if *quick {
			cfg.Providers = 8
			cfg.BlobPages = 64
			cfg.ChunkPages = 16
			cfg.ReaderCounts = []int{16}
		}
		res, err := bench.RunReadPath(cfg)
		if err != nil {
			return nil, err
		}
		fmt.Println("Ablation A11: production read path — cache + single-flight, hedged replicas, coalescing")
		res.Table().Fprint(os.Stdout)
		return res, nil
	})

	run("replication", func() (any, error) {
		cfg := bench.ReplicationConfig{Sim: bench.SimParams{Scale: *scale}}
		if *quick {
			cfg.Providers = 8
			cfg.AppendBytes = 8 << 20
			cfg.Readers = 4
		}
		tab, err := bench.RunReplication(cfg)
		if err != nil {
			return nil, err
		}
		fmt.Println("Ablation A5: page replication (extension: the paper's future work)")
		tab.Fprint(os.Stdout)
		return tab, nil
	})
}
