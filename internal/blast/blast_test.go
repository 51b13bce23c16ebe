package blast

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSmoke runs every workload at -quick sizes, untraced and traced,
// and checks that nothing failed and that the result carries exactly
// the declared metrics.
func TestSmoke(t *testing.T) {
	for _, w := range Workloads {
		for _, trace := range []bool{false, true} {
			res, err := Run(context.Background(), Options{Workload: w.Name, Seed: 7, Quick: true, Trace: trace, Dir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			defs := EndToEnd
			if trace {
				defs = PerLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, %d declared", w.Name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s: metric %s has unit %q, declared %q", w.Name, d.Name, m.Unit, d.Unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s: metric %s is %v", w.Name, d.Name, m.Value)
				case !trace && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v, must never be 0", w.Name, d.Name, m.Value)
				}
			}
			if trace {
				if heap := res.Metrics["harness.live_heap_mb"].Value; heap <= 0 || heap >= 16 {
					t.Errorf("%s: harness.live_heap_mb = %.1f, want (0, 16)", w.Name, heap)
				}
			}
		}
	}
}

// TestCorruptReadFailsRun flips one expected checksum: the read that
// covers it must count as a failed operation and the run as incorrect
// (cmd/blobseer-blast exits non-zero on an incorrect run).
func TestCorruptReadFailsRun(t *testing.T) {
	res, err := Run(context.Background(), Options{Workload: "scan_cold", Seed: 7, Quick: true, Dir: t.TempDir(), flipExpected: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Errorf("corrupted expectation went unnoticed: correct=%v failed=%d", res.Correct, res.Failed)
	}
}

// TestDeclarationsMatchBenchmarkJSON keeps the metric and workload
// tables in this package identical to the ones the driver reads.
func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonDef struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var file struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []jsonDef                    `json:"end_to_end"`
		PerLayer  []jsonDef                    `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(Workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, package has %d", len(file.Workloads), len(Workloads))
	}
	for i, w := range Workloads {
		if got := file.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, package has {%s %s}", i, got, w.Name, w.Why)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %s: name or why outside the driver's limits (why is %d chars)", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []jsonDef, want []Def, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, package has %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, package has %+v", kind, i, g, d)
			}
			if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) {
				t.Errorf("%s %s: name or unit %q outside the driver's limits", kind, d.Name, d.Unit)
			}
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25)) {
				t.Errorf("%s %s: bound in BENCHMARK.json %v, in package %v", kind, d.Name, g.Bound, d.Bound)
			}
		}
	}
	check("end_to_end", file.EndToEnd, EndToEnd, true)
	check("per_layer", file.PerLayer, PerLayer, false)
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, ..., 10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := Quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("Quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}
