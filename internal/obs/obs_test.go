package obs

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// two is a source of two services' worth of series, the second written
// through a labelled view, as a deployment-wide scrape writes them.
type two struct{ h *Histogram }

func (t two) Metrics(s *Sink) {
	for i, role := range []string{"data", "metadata"} {
		v := s.With("role", role)
		v.Gauge("store_keys", "live keys", float64(10*(i+1)))
		v.Counter("store_failures_total", "failed passes", 1, "pass", "snapshot")
		v.Counter("store_failures_total", "failed passes", 2, "pass", "compact")
	}
	s.Histogram("rpc_handler_seconds", "handler time", t.h, "kind", `Get"Req`)
}

func newTwo() two {
	h := new(Histogram)
	h.Observe(50 * time.Microsecond)  // first bucket
	h.Observe(150 * time.Microsecond) // second
	h.Observe(time.Minute)            // +Inf
	return two{h}
}

func TestWriteTo(t *testing.T) {
	var s Sink
	newTwo().Metrics(&s)
	var b strings.Builder
	if _, err := s.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	for _, want := range []string{
		// One family per name, however many views wrote it, HELP and TYPE once.
		"# HELP store_keys live keys\n# TYPE store_keys gauge\n" +
			"store_keys{role=\"data\"} 10\nstore_keys{role=\"metadata\"} 20\n",
		"# TYPE store_failures_total counter\n" +
			"store_failures_total{role=\"data\",pass=\"snapshot\"} 1\n" +
			"store_failures_total{role=\"data\",pass=\"compact\"} 2\n" +
			"store_failures_total{role=\"metadata\",pass=\"snapshot\"} 1\n",
		// Cumulative buckets in seconds, a quoted label value escaped.
		"# TYPE rpc_handler_seconds histogram\n" +
			"rpc_handler_seconds_bucket{kind=\"Get\\\"Req\",le=\"0.0001\"} 1\n" +
			"rpc_handler_seconds_bucket{kind=\"Get\\\"Req\",le=\"0.0002\"} 2\n",
		"rpc_handler_seconds_bucket{kind=\"Get\\\"Req\",le=\"6.5536\"} 2\n" +
			"rpc_handler_seconds_bucket{kind=\"Get\\\"Req\",le=\"+Inf\"} 3\n" +
			"rpc_handler_seconds_sum{kind=\"Get\\\"Req\"} 60.0002\n" +
			"rpc_handler_seconds_count{kind=\"Get\\\"Req\"} 3\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("scrape lacks\n%s\ngot:\n%s", want, got)
		}
	}
	if n := strings.Count(got, "# TYPE store_failures_total "); n != 1 {
		t.Errorf("store_failures_total declared %d times", n)
	}
}

func TestValue(t *testing.T) {
	src := newTwo()
	for _, c := range []struct {
		name   string
		labels []string
		want   float64
	}{
		{"store_keys", nil, 30},
		{"store_keys", []string{"role", "metadata"}, 20},
		{"store_failures_total", []string{"pass", "compact"}, 4},
		{"store_failures_total", []string{"role", "data", "pass", "snapshot"}, 1},
		{"store_failures_total", []string{"role", "dat"}, 0},
		{"rpc_handler_seconds_count", nil, 3},
		{"rpc_handler_seconds", nil, 0},
		{"no_such_series", nil, 0},
	} {
		if got := Value(src, c.name, c.labels...); got != c.want {
			t.Errorf("Value(%s, %q) = %v, want %v", c.name, c.labels, got, c.want)
		}
	}
}

func TestHandler(t *testing.T) {
	srv := httptest.NewServer(Handler(newTwo()))
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type %q, want text/plain", ct)
	}
	if !strings.Contains(string(body), "store_keys{role=\"metadata\"} 20\n") {
		t.Errorf("handler served:\n%s", body)
	}
}

func TestObserveAllocatesNothing(t *testing.T) {
	var h Histogram
	if n := testing.AllocsPerRun(100, func() { h.Observe(time.Millisecond) }); n != 0 {
		t.Fatalf("Observe allocates %v times", n)
	}
}

// TestObserveWhileScraping scrapes a histogram while it is observed: the
// race detector's case, and every scrape must read a count that only
// grows and matches its +Inf bucket.
func TestObserveWhileScraping(t *testing.T) {
	src := two{new(Histogram)}
	const observers, each = 4, 2000
	var wg sync.WaitGroup
	for i := range observers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range each {
				src.h.Observe(time.Duration(i*j) * time.Microsecond)
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	var last float64
	for scraping := true; scraping; {
		select {
		case <-done:
			scraping = false
		default:
		}
		var s Sink // one scrape: its count and its +Inf bucket must agree
		src.Metrics(&s)
		var n, inf float64
		for _, x := range s.fams[len(s.fams)-1].samples {
			switch {
			case x.name == "rpc_handler_seconds_count":
				n = x.v
			case strings.HasSuffix(x.labels, `le="+Inf"`):
				inf = x.v
			}
		}
		if n < last || n != inf {
			t.Fatalf("count %v after %v, +Inf bucket %v", n, last, inf)
		}
		last = n
	}
	if last != observers*each {
		t.Fatalf("count %v after every observe, want %d", last, observers*each)
	}
}
