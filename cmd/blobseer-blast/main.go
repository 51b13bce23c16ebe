// Command blobseer-blast is the repository's end-to-end benchmark: four
// fixed, seeded workloads against a durable cluster on loopback TCP,
// one OS process per workload, every read verified. See README.md in
// this directory for the workloads, the metrics and the noise budget.
//
//	blobseer-blast                         # all four workloads, untraced
//	blobseer-blast -workload scan_cold     # one workload, in this process
//	blobseer-blast -trace 1                # the traced run: per-layer metrics
//	blobseer-blast -repeat 8 -json r.json  # 8 suites; median, quartiles, half-range
//	blobseer-blast -compare old.json new.json
//
// The last line of a single-workload run's standard output is one JSON
// object {correct, attempted, failed, metrics}. The exit code is
// non-zero when an operation failed or a read did not verify.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"

	"blobseer/internal/blast"
)

var (
	workload = flag.String("workload", "all", "workload to run, or all (one child process each)")
	seed     = flag.Int64("seed", 1, "seed for offsets and payload choice")
	seconds  = flag.Int("seconds", 16, "sets the number of fixed-work rounds (about this long on the 2-core sandbox)")
	trace    = flag.Int("trace", 0, "1 runs the traced variant and reports the per-layer metrics")
	quick    = flag.Bool("quick", false, "smoke-test sizes: a few MiB, two rounds")
	dir      = flag.String("dir", "", "directory for cluster files (default os.TempDir())")
	verbose  = flag.Bool("v", false, "print one line per measured round on standard error")
	jsonOut  = flag.String("json", "", "append each result to this file, one JSON object per line")
	repeat   = flag.Int("repeat", 1, "with -workload all: run the suite this many times (seed, seed+1, ...) and print the spread of everything in the -json file")
	compare  = flag.Bool("compare", false, "compare two result files: blobseer-blast -compare old.json new.json")
)

// errIncorrect is a run that completed but failed an operation or a
// verification; the details are already printed.
var errIncorrect = errors.New("run not correct")

func main() {
	flag.Parse()
	var err error
	switch {
	case *compare:
		err = runCompare()
	case *workload == "all":
		err = runSuites()
	default:
		err = runOne()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "blobseer-blast:", err)
		os.Exit(1)
	}
}

func runCompare() error {
	if flag.NArg() != 2 {
		return errors.New("-compare takes two result files")
	}
	old, err := blast.ReadResults(flag.Arg(0))
	if err != nil {
		return err
	}
	new, err := blast.ReadResults(flag.Arg(1))
	if err != nil {
		return err
	}
	if blast.Compare(os.Stdout, old, new) {
		return errors.New("regressed")
	}
	return nil
}

func runOne() error {
	res, err := blast.Run(context.Background(), blast.Options{
		Workload: *workload, Seed: *seed, Seconds: *seconds,
		Trace: *trace != 0, Quick: *quick, Dir: *dir, Verbose: *verbose,
	})
	if err != nil {
		return err
	}
	res.Print(os.Stdout)
	if *jsonOut != "" {
		if err := res.AppendTo(*jsonOut); err != nil {
			return err
		}
	}
	fmt.Println(res.LastLine())
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

// runSuites runs every workload in a child process of its own, so
// peak_rss_mb and the heap each workload meets are its own.
func runSuites() error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	out := *jsonOut
	if out == "" {
		tmp, err := os.MkdirTemp(*dir, "blast-results-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		out = filepath.Join(tmp, "results.json")
	}
	for rep := range *repeat {
		for _, w := range blast.Workloads {
			args := []string{
				"-workload", w.Name,
				"-seed", strconv.FormatInt(*seed+int64(rep), 10),
				"-seconds", strconv.Itoa(*seconds),
				"-trace", strconv.Itoa(*trace),
				"-dir", *dir,
				"-json", out,
			}
			if *quick {
				args = append(args, "-quick")
			}
			if *verbose {
				args = append(args, "-v")
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
		}
	}
	if *repeat > 1 {
		results, err := blast.ReadResults(out)
		if err != nil {
			return err
		}
		blast.Summarize(os.Stdout, results)
	}
	return nil
}
