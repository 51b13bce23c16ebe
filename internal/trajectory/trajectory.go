// Package trajectory holds a measurement to the last row of
// BENCH_trajectory.json, the repository's committed perf trajectory: a
// test that gates a column measures it in-process and judges it here,
// by the column's own rule.
package trajectory

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/debug"
	"slices"
	"testing"
)

// Skip skips a gate under the race detector, which changes what
// allocates, and under -short.
func Skip(t testing.TB) {
	bi, _ := debug.ReadBuildInfo()
	if testing.Short() || bi != nil && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"}) {
		t.Skip("a trajectory gate runs without -race and -short")
	}
}

// Allocs is the least allocs/op of three runs of bench at n iterations
// each, as `go test -bench -benchtime <n>x -count 3` runs it.
func Allocs(t testing.TB, n int, bench func(*testing.B)) float64 {
	bt := flag.Lookup("test.benchtime").Value
	defer bt.Set(bt.String())
	_ = bt.Set(fmt.Sprint(n, "x"))
	least := int64(-1)
	for range 3 {
		r := testing.Benchmark(bench)
		if r.N != n {
			t.Fatalf("the benchmark failed after %d of %d iterations", r.N, n)
		}
		if least < 0 || r.AllocsPerOp() < least {
			least = r.AllocsPerOp()
		}
	}
	return float64(least)
}

// AtMost fails t for each key of column in the trajectory's last row
// that got does not measure, or measures above limit of the row's
// value. The test runs in a package two levels below the module root.
func AtMost(t testing.TB, column string, got map[string]float64, limit func(row float64) float64) {
	var file struct{ Rows []map[string]json.RawMessage }
	var last map[string]float64
	data, err := os.ReadFile("../../BENCH_trajectory.json")
	if err == nil {
		err = json.Unmarshal(data, &file)
	}
	if err == nil && len(file.Rows) > 0 {
		err = json.Unmarshal(file.Rows[len(file.Rows)-1][column], &last)
	}
	if err != nil || len(last) == 0 {
		t.Fatalf("BENCH_trajectory.json's last %s: %v", column, err)
	}
	for key, row := range last {
		v, ok := got[key]
		switch {
		case !ok:
			t.Errorf("%s %s: not measured", column, key)
		case v > limit(row):
			t.Errorf("%s %s: %.6g, over the %.6g the trajectory's last row (%.6g) allows", column, key, v, limit(row), row)
		default:
			t.Logf("%s %s: %.6g, the trajectory's last row %.6g", column, key, v, row)
		}
	}
}
