// Package obs is the one shape every service's numbers take: a service writes
// its current values into a Sink when asked (its Metrics method), and the Sink
// renders them as Prometheus text (Handler) or answers one by name (Value). No
// registry: a scrape reads the live objects and their atomics. Stdlib only.
package obs

import (
	"cmp"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Source is anything that writes series into a Sink.
type Source interface{ Metrics(*Sink) }

// Sink collects one scrape: each family, in the order it was first
// written, with its samples. The zero value is ready to use.
type Sink struct {
	root   *Sink  // where a view made by With writes; nil in the root
	labels string // the pairs With added, rendered
	fams   []*family
}

type family struct {
	name, help, typ string
	samples         []sample
}

type sample struct {
	name, labels string // labels rendered as ,k="v",k="v"...
	v            float64
}

// With returns a view of s that adds label pairs (name, value, ...) to all it writes.
func (s *Sink) With(labels ...string) *Sink {
	return &Sink{root: cmp.Or(s.root, s), labels: s.labels + render(labels)}
}

// Counter writes a count that only grows; labels are pairs, as for With.
func (s *Sink) Counter(name, help string, v float64, labels ...string) {
	s.add("counter", name, help, sample{name, render(labels), v})
}

// Gauge writes a value that can go down as well as up.
func (s *Sink) Gauge(name, help string, v float64, labels ...string) {
	s.add("gauge", name, help, sample{name, render(labels), v})
}

// Histogram writes h as cumulative buckets, a sum and a count, in seconds.
func (s *Sink) Histogram(name, help string, h *Histogram, labels ...string) {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
		le := "+Inf"
		if i < len(h.counts)-1 {
			le = strconv.FormatFloat((minBound << i).Seconds(), 'g', -1, 64)
		}
		s.add("histogram", name, help, sample{name + "_bucket", render(append(labels[:len(labels):len(labels)], "le", le)), float64(n)})
	}
	s.add("histogram", name, help, sample{name + "_sum", render(labels), time.Duration(h.sum.Load()).Seconds()})
	s.add("histogram", name, help, sample{name + "_count", render(labels), float64(n)})
}

func (s *Sink) add(typ, fam, help string, x sample) {
	r := cmp.Or(s.root, s)
	i := slices.IndexFunc(r.fams, func(f *family) bool { return f.name == fam })
	if i < 0 {
		i, r.fams = len(r.fams), append(r.fams, &family{name: fam, help: help, typ: typ})
	}
	x.labels = s.labels + x.labels
	r.fams[i].samples = append(r.fams[i].samples, x)
}

// WriteTo renders the scrape in the Prometheus text exposition format.
func (s *Sink) WriteTo(w io.Writer) (int64, error) {
	var b strings.Builder
	for _, f := range s.fams {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		for _, x := range f.samples {
			if x.labels != "" {
				x.labels = "{" + x.labels[1:] + "}"
			}
			fmt.Fprintf(&b, "%s%s %s\n", x.name, x.labels, strconv.FormatFloat(x.v, 'g', -1, 64))
		}
	}
	return io.Copy(w, strings.NewReader(b.String()))
}

// Value scrapes src and sums its samples named name that carry every given
// label pair, 0 if none does; a histogram's are name_bucket, _sum and _count.
func Value(src Source, name string, labels ...string) (sum float64) {
	var s Sink
	src.Metrics(&s)
	for _, f := range s.fams {
		for _, x := range f.samples {
			ok := x.name == name
			for i := 0; ok && i+1 < len(labels); i += 2 {
				ok = strings.Contains(x.labels+",", render(labels[i:i+2])+",")
			}
			if ok {
				sum += x.v
			}
		}
	}
	return sum
}

// Handler serves src's series as Prometheus text, scraped per request.
func Handler(src Source) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		var s Sink
		src.Metrics(&s)
		s.WriteTo(w) // a failed write is the scraper's to notice
	})
}

// Histogram counts durations in buckets whose bounds double from 100 µs (a page
// read from the OS cache) to 6.6 s (a SYNC behind a slow writer), then +Inf. The
// zero value is ready; Observe is safe for concurrent use and allocates nothing.
type Histogram struct {
	counts [18]atomic.Uint64
	sum    atomic.Int64 // nanoseconds
}

const minBound = 100 * time.Microsecond // the first bucket's bound

// Observe counts one duration.
func (h *Histogram) Observe(d time.Duration) {
	i := 0
	for i < len(h.counts)-1 && d > minBound<<i {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(int64(d))
}

// render renders pairs as ,k="v",... in Go quoting, as Prometheus quotes printable values.
func render(labels []string) string {
	var b strings.Builder
	for i := 0; i+1 < len(labels); i += 2 {
		fmt.Fprintf(&b, ",%s=%q", labels[i], labels[i+1])
	}
	return b.String()
}
