// Package bench regenerates the paper's evaluation (§5) on the simulated
// Grid'5000 substrate, plus the ablations listed in README.md
// ("Benchmarks" and the budget sections under it). Each
// experiment runs the real BlobSeer stack over internal/simnet under a
// virtual clock and reports bandwidth in the paper's units.
//
// # Scaling
//
// Experiments run at 1/Scale of the paper's data scale: page sizes and
// link bandwidth are both divided by Scale (default 64), which preserves
// per-page transfer times, metadata round-trip ratios, page counts and
// tree depths, while fitting the paper's 64 GB-scale runs in laptop
// memory. Reported bandwidths are rescaled back to paper units.
package bench

import (
	"fmt"
	"io"
	"time"

	"blobseer/internal/client"
	"blobseer/internal/cluster"
	"blobseer/internal/simnet"
	"blobseer/internal/vclock"
)

// MB is 10^6 bytes, the unit of the paper's bandwidth axes.
const MB = 1e6

// Point is one measurement of a series.
type Point struct {
	X float64
	Y float64
}

// Series is one labelled curve of an experiment.
type Series struct {
	Name   string
	XLabel string
	YLabel string
	Points []Point
}

// Fprint renders the series as aligned text.
func (s Series) Fprint(w io.Writer) {
	fmt.Fprintf(w, "## %s\n", s.Name)
	fmt.Fprintf(w, "%-14s %s\n", s.XLabel, s.YLabel)
	for _, p := range s.Points {
		fmt.Fprintf(w, "%-14.0f %.1f\n", p.X, p.Y)
	}
}

// SimParams fixes the simulated testbed; zero values give the paper's
// Grid'5000 Rennes figures at the default 1/64 scale.
type SimParams struct {
	// Scale divides page size and link bandwidth (default 64; 1 runs at
	// full paper scale, which needs tens of GB of memory).
	Scale uint64
	// LinkMBps is the paper-units NIC throughput (default 117.5, the
	// measured TCP figure from §5).
	LinkMBps float64
	// LatencyUS is the one-way latency in microseconds (default 100).
	LatencyUS int
}

func (p *SimParams) fill() {
	if p.Scale == 0 {
		p.Scale = 64
	}
	if p.LinkMBps == 0 {
		p.LinkMBps = 117.5
	}
	if p.LatencyUS == 0 {
		p.LatencyUS = 100
	}
}

// netConfig converts paper-unit parameters to the scaled simnet config.
func (p *SimParams) netConfig() simnet.Config {
	return simnet.Config{
		LinkBps: p.LinkMBps * MB / float64(p.Scale),
		Latency: time.Duration(p.LatencyUS) * time.Microsecond,
	}
}

// env is one simulated deployment under construction.
type env struct {
	clock *vclock.Virtual
	net   *simnet.Net
	cl    *cluster.Cluster
}

// runSim builds a simulated cluster per the paper's deployment and runs
// body inside the virtual clock.
func runSim(p SimParams, providers int, ccfg cluster.Config, body func(e *env) error) error {
	clock := vclock.NewVirtual(0)
	net := simnet.New(clock, p.netConfig())
	var bodyErr error
	simErr := clock.Run(func() {
		ccfg.DataProviders = providers
		ccfg.MetaProviders = providers
		if ccfg.HeartbeatEvery == 0 {
			ccfg.HeartbeatEvery = time.Hour // keep the event stream quiet
		}
		cl, err := cluster.StartSim(net, clock, ccfg)
		if err != nil {
			bodyErr = err
			return
		}
		defer cl.Close()
		bodyErr = body(&env{clock: clock, net: net, cl: cl})
	})
	if simErr != nil {
		return fmt.Errorf("bench: simulation failed: %w", simErr)
	}
	return bodyErr
}

// clientOn creates a client on the named simulated node.
func (e *env) clientOn(host string) (*client.Client, error) {
	return e.cl.NewClient(host)
}
