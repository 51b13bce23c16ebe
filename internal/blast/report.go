package blast

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
)

// Print writes the result for a reader: the environment, then every
// metric by name with its unit.
func (r *Result) Print(w io.Writer) {
	e := r.Env
	fmt.Fprintf(w, "%s (trace=%v): attempted=%d failed=%d correct=%v\n", r.Workload, r.Trace, r.Attempted, r.Failed, r.Correct)
	fmt.Fprintf(w, "  env: nproc=%d GOMAXPROCS=%d %s kernel=%s fs=%s seed=%d seconds=%d rounds=%d clients=%d quick=%v rev=%s\n",
		e.NProc, e.GOMAXPROCS, e.GoVersion, e.Kernel, e.DataDirFS, e.Seed, e.Seconds, e.Rounds, e.Clients, e.Quick, e.Revision)
	fmt.Fprintf(w, "  flush: %s\n", e.Flush)
	for _, set := range []map[string]Metric{r.Metrics, r.Detail} {
		names := make([]string, 0, len(set))
		for name := range set {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(w, "  %-36s %14.4f %s\n", name, set[name].Value, set[name].Unit)
		}
	}
}

// LastLine is the one-object summary the benchmark driver reads from
// the last line of standard output.
func (r *Result) LastLine() string {
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]Metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		panic(err) // only finite floats and strings: cannot fail
	}
	return string(b)
}

// AppendTo adds the result to a results file, one JSON object per line.
func (r *Result) AppendTo(path string) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	b, err := json.Marshal(r)
	if err == nil {
		_, err = f.Write(append(b, '\n'))
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// ReadResults loads a results file written by AppendTo.
func ReadResults(path string) ([]Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []Result
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var r Result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// series groups the values of each workload/metric pair over runs. An
// untraced run's details count too: they carry the wall-clock metrics,
// measured with tracing off, under their per-layer names.
func series(results []Result) map[string][]float64 {
	out := make(map[string][]float64)
	for _, r := range results {
		sets := []map[string]Metric{r.Metrics}
		if !r.Trace {
			sets = append(sets, r.Detail)
		}
		for _, set := range sets {
			for name, m := range set {
				key := r.Workload + "/" + name
				out[key] = append(out[key], m.Value)
			}
		}
	}
	return out
}

// pairs lists every workload/metric pair of the declared metrics, in
// declaration order, that appears in have with a value other than 0 (a
// metric that does not exist on a workload reads 0).
func pairs(have map[string][]float64) (keys []string, defs []Def) {
	for _, w := range Workloads {
		for _, d := range slices.Concat(EndToEnd, PerLayer) {
			if key := w.Name + "/" + d.Name; len(have[key]) > 0 && slices.Max(have[key]) > 0 {
				keys, defs = append(keys, key), append(defs, d)
			}
		}
	}
	return keys, defs
}

// spread is the interquartile range as a share of the median — the
// benchmark driver's measure of run-to-run noise — and the half-range
// (max-min)/2 as a share of the median, from which bounds are derived.
func spread(xs []float64) (med, q1, q3, iqrShare, halfRange float64) {
	if len(xs) < 2 {
		return Median(xs), 0, 0, 0, 0
	}
	q1, med, q3 = Quartiles(xs)
	iqrShare = ratio(q3-q1, med)
	halfRange = ratio((slices.Max(xs)-slices.Min(xs))/2, med)
	return med, q1, q3, iqrShare, halfRange
}

// Summarize prints, per workload/metric pair, the median, quartiles,
// spread and half-range over the runs in results.
func Summarize(w io.Writer, results []Result) {
	have := series(results)
	keys, defs := pairs(have)
	fmt.Fprintf(w, "%-48s %4s %12s %12s %12s %8s %8s  %s\n", "workload/metric", "runs", "median", "q1", "q3", "iqr%", "half%", "unit")
	for i, key := range keys {
		xs := have[key]
		med, q1, q3, iqr, half := spread(xs)
		fmt.Fprintf(w, "%-48s %4d %12.4f %12.4f %12.4f %8.2f %8.2f  %s\n", key, len(xs), med, q1, q3, 100*iqr, 100*half, defs[i].Unit)
	}
}

// Compare prints one row per bounded workload/metric pair present in
// both result sets — the end-to-end metrics and the wall-clock per-layer
// ones: both medians, the relative change (positive is worse), the bound
// and a verdict — "regressed" when the new median is worse by more than
// the bound, "unresolved" when either side's spread is wider than the
// bound, else "ok". It reports whether any pair regressed.
func Compare(w io.Writer, old, new []Result) bool {
	a, b := series(old), series(new)
	keys, defs := pairs(a)
	regressed := false
	fmt.Fprintf(w, "%-40s %12s %12s %8s %7s  %s\n", "workload/metric", "old", "new", "worse%", "bound%", "verdict")
	for i, key := range keys {
		d := defs[i]
		if d.Bound == 0 || len(b[key]) == 0 {
			continue
		}
		om, _, _, oiqr, _ := spread(a[key])
		nm, _, _, niqr, _ := spread(b[key])
		worse := ratio(nm-om, om)
		if d.Better == "higher" {
			worse = -worse
		}
		verdict := "ok"
		switch {
		case max(oiqr, niqr) > d.Bound:
			verdict = "unresolved"
		case worse > d.Bound:
			verdict = "regressed"
			regressed = true
		}
		fmt.Fprintf(w, "%-40s %12.4f %12.4f %+8.2f %7.1f  %s\n", key, om, nm, 100*worse, 100*d.Bound, verdict)
	}
	return regressed
}
