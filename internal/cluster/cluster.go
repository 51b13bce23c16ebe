// Package cluster assembles complete BlobSeer deployments: a version
// manager, a provider manager, N data providers and M metadata providers,
// over any transport. It exists so tests, examples and the experiment
// harness share one way to stand up the system.
//
// Two topologies are provided:
//
//   - StartInproc: every service on one in-process network — the
//     embedded deployment used by tests and examples.
//   - StartSim: the paper's Grid'5000 deployment (§5) on a simulated
//     network — version manager and provider manager on dedicated nodes,
//     data and metadata providers co-deployed pairwise on the remaining
//     nodes, clients placed on any node.
package cluster

import (
	"fmt"
	"path/filepath"
	"slices"
	"time"
	"weak"

	"blobseer/internal/client"
	"blobseer/internal/dht"
	"blobseer/internal/pagestore"
	"blobseer/internal/provider"
	"blobseer/internal/rpc"
	"blobseer/internal/simnet"
	"blobseer/internal/transport"
	"blobseer/internal/vclock"
	"blobseer/internal/version"
)

// Config sizes a cluster.
type Config struct {
	// DataProviders is the number of data provider services (default 4).
	DataProviders int
	// MetaProviders is the number of metadata (DHT) nodes (default 4).
	MetaProviders int
	// Replication is the metadata replication factor (default 1; the
	// paper's prototype did not replicate).
	Replication int
	// PageReplication stores each data page on this many distinct
	// providers (default 1, the paper's layout; >1 enables the replication
	// extension with read failover).
	PageReplication int
	// NewStore builds each data provider's page engine. Nil defaults to
	// in-memory stores, or — when PageDir is set — to durable page
	// stores owned by the providers.
	NewStore func(i int) pagestore.Store
	// PageDir, when non-empty and NewStore is nil, gives every data
	// provider a durable segmented page store at
	// PageDir/provider-<i>.log, tuned by PageStore. The provider opens
	// and closes it.
	PageDir string
	// PageStore tunes the page stores opened under PageDir.
	PageStore pagestore.DiskOptions
	// DeadWriterTimeout enables the version manager's crashed-writer
	// sweeper when positive.
	DeadWriterTimeout time.Duration
	// VersionWALPath makes the version manager durable: state-changing
	// events are logged there and replayed on restart (pair with
	// DeadWriterTimeout).
	VersionWALPath string
	// VersionWALSegmentBytes rolls the version WAL into a fresh segment
	// once the active one exceeds this many bytes (0 = 64 MB default).
	VersionWALSegmentBytes int64
	// VersionCheckpointEvery, when positive, snapshots version state and
	// compacts the WAL after that many logged events, so restarts replay
	// only the tail (0 disables automatic checkpoints).
	VersionCheckpointEvery int
	// RetainVersions is the version manager's keep-last-N retention
	// policy: EXPIRE requests are clamped so at least this many of a
	// blob's newest published versions stay readable (default 1).
	RetainVersions int
	// MetaLogDir makes the metadata (DHT) nodes durable: node i keeps a
	// segmented pair log rooted at MetaLogDir/meta-<i>.log and reloads it
	// on start. Combine with VersionWALPath and a disk-backed NewStore
	// for a fully restartable cluster.
	MetaLogDir string
	// MetaLog tunes the durable metadata logs opened under MetaLogDir
	// (segment size, index-snapshot interval, compaction threshold).
	MetaLog dht.LogOptions
	// HeartbeatEvery tunes provider heartbeats (default 5s).
	HeartbeatEvery time.Duration
	// CallTimeout bounds every RPC issued by the cluster's own plumbing
	// (provider registration and heartbeats) and by clients built with
	// NewClient, unless the call's context already carries a deadline.
	// DialTimeout bounds connection establishment the same way. Zero
	// means unbounded; both are inert under a Virtual scheduler.
	CallTimeout time.Duration
	DialTimeout time.Duration
	// ClientCacheNodes sets new clients' metadata cache capacity
	// (0 = default, negative = disabled).
	ClientCacheNodes int
	// ClientRead tunes new clients' read path (page cache, hedging,
	// coalescing, fanout); zero value = defaults. Per-client overrides
	// go through NewClientCfg.
	ClientRead client.ReadTuning
}

func (c *Config) fillDefaults() {
	if c.DataProviders <= 0 {
		c.DataProviders = 4
	}
	if c.MetaProviders <= 0 {
		c.MetaProviders = 4
	}
	if c.Replication <= 0 {
		c.Replication = 1
	}
}

// Cluster is a running BlobSeer deployment.
type Cluster struct {
	cfg   Config
	sched vclock.Scheduler

	VM        *version.Manager
	PM        *provider.Manager
	Providers []*provider.Provider
	MetaNodes []*dht.Node
	Ring      *dht.Ring

	// clientNet builds the transport for new clients; host is the node
	// name under simnet and ignored for in-process clusters.
	clientNet func(host string) transport.Network

	aux []*rpc.Client // per-provider heartbeat clients
	// clients are the clients NewClientCfg built, for Close to close the
	// ones still in use. Weak: a client its owner closed and dropped —
	// each cold-cache reader a benchmark dials — must not stay reachable,
	// page cache and all, for as long as the cluster runs.
	clients []weak.Pointer[client.Client]
}

// StartInproc stands a cluster up on a single in-process network.
func StartInproc(net *transport.Inproc, sched vclock.Scheduler, cfg Config) (*Cluster, error) {
	cfg.fillDefaults()
	cl := &Cluster{cfg: cfg, sched: sched,
		clientNet: func(string) transport.Network { return net }}

	listen := func(name string) (transport.Listener, error) { return net.Listen(name) }
	if err := cl.start(
		func() (transport.Listener, error) { return listen("version-manager") },
		func() (transport.Listener, error) { return listen("provider-manager") },
		func(i int) (transport.Listener, error) { return listen(fmt.Sprintf("data-%d", i)) },
		func(i int) (transport.Listener, error) { return listen(fmt.Sprintf("meta-%d", i)) },
		func(i int) transport.Network { return net },
	); err != nil {
		cl.Close()
		return nil, err
	}
	return cl, nil
}

// StartTCP stands a cluster up on the operating system's loopback TCP
// stack: every service listens on 127.0.0.1 with a kernel-assigned port.
// This is the same transport a production deployment via cmd/blobseerd
// uses, so it exercises real sockets, framing and connection pooling.
func StartTCP(sched vclock.Scheduler, cfg Config) (*Cluster, error) {
	cfg.fillDefaults()
	cl := &Cluster{cfg: cfg, sched: sched,
		clientNet: func(string) transport.Network { return transport.TCP{} }}

	listen := func() (transport.Listener, error) { return transport.TCP{}.Listen("127.0.0.1:0") }
	if err := cl.start(
		listen,
		listen,
		func(int) (transport.Listener, error) { return listen() },
		func(int) (transport.Listener, error) { return listen() },
		func(int) transport.Network { return transport.TCP{} },
	); err != nil {
		cl.Close()
		return nil, err
	}
	return cl, nil
}

// StartSim stands a cluster up on a simulated network following the
// paper's deployment: "we deploy the version manager and the provider
// manager on two distinct dedicated nodes, and we co-deploy a data
// provider and a metadata provider on the other nodes" (§5). Node names
// are "vm", "pm" and "node0".."nodeN-1"; DataProviders and MetaProviders
// should normally be equal for pairwise co-deployment.
func StartSim(net *simnet.Net, sched vclock.Scheduler, cfg Config) (*Cluster, error) {
	cfg.fillDefaults()
	cl := &Cluster{cfg: cfg, sched: sched,
		clientNet: func(host string) transport.Network { return net.Host(host) }}

	if err := cl.start(
		func() (transport.Listener, error) { return net.Host("vm").Listen("version-manager") },
		func() (transport.Listener, error) { return net.Host("pm").Listen("provider-manager") },
		func(i int) (transport.Listener, error) {
			return net.Host(fmt.Sprintf("node%d", i)).Listen("data")
		},
		func(i int) (transport.Listener, error) {
			return net.Host(fmt.Sprintf("node%d", i)).Listen("meta")
		},
		func(i int) transport.Network { return net.Host(fmt.Sprintf("node%d", i)) },
	); err != nil {
		cl.Close()
		return nil, err
	}
	return cl, nil
}

// start wires all services given per-role listener factories.
func (cl *Cluster) start(
	vmLn, pmLn func() (transport.Listener, error),
	dataLn, metaLn func(i int) (transport.Listener, error),
	providerNet func(i int) transport.Network,
) error {
	cfg := cl.cfg

	ln, err := vmLn()
	if err != nil {
		return fmt.Errorf("cluster: version manager listener: %w", err)
	}
	cl.VM, err = version.ServeManagerDurable(ln, version.ManagerConfig{
		Sched:             cl.sched,
		DeadWriterTimeout: cfg.DeadWriterTimeout,
		WALPath:           cfg.VersionWALPath,
		WALSegmentBytes:   cfg.VersionWALSegmentBytes,
		CheckpointEvery:   cfg.VersionCheckpointEvery,
		RetainVersions:    cfg.RetainVersions,
	})
	if err != nil {
		return fmt.Errorf("cluster: version manager: %w", err)
	}

	ln, err = pmLn()
	if err != nil {
		return fmt.Errorf("cluster: provider manager listener: %w", err)
	}
	cl.PM = provider.ServeManager(ln, provider.ManagerConfig{Sched: cl.sched})

	metaAddrs := make([]string, cfg.MetaProviders)
	for i := 0; i < cfg.MetaProviders; i++ {
		ln, err := metaLn(i)
		if err != nil {
			return fmt.Errorf("cluster: metadata provider %d: %w", i, err)
		}
		var node *dht.Node
		if cfg.MetaLogDir != "" {
			node, err = dht.ServeDurableNode(ln, cl.sched,
				fmt.Sprintf("%s/meta-%d.log", cfg.MetaLogDir, i), cfg.MetaLog)
			if err != nil {
				ln.Close()
				return fmt.Errorf("cluster: metadata provider %d: %w", i, err)
			}
		} else {
			node = dht.ServeNode(ln, cl.sched)
		}
		cl.MetaNodes = append(cl.MetaNodes, node)
		metaAddrs[i] = node.Addr()
	}
	cl.Ring, err = dht.NewRing(metaAddrs, cfg.Replication)
	if err != nil {
		return fmt.Errorf("cluster: metadata ring: %w", err)
	}

	for i := 0; i < cfg.DataProviders; i++ {
		ln, err := dataLn(i)
		if err != nil {
			return fmt.Errorf("cluster: data provider %d: %w", i, err)
		}
		// Each provider heartbeats from its own node so the simulated
		// network charges the right links.
		aux := rpc.NewClient(providerNet(i), cl.sched, rpc.ClientOptions{
			CallTimeout: cfg.CallTimeout,
			DialTimeout: cfg.DialTimeout,
		})
		cl.aux = append(cl.aux, aux)
		pcfg := provider.Config{
			Sched:          cl.sched,
			ManagerAddr:    cl.PM.Addr(),
			Client:         aux,
			HeartbeatEvery: cfg.HeartbeatEvery,
			CallTimeout:    cfg.CallTimeout,
		}
		if cfg.NewStore != nil {
			pcfg.Store = cfg.NewStore(i)
		} else if cfg.PageDir != "" {
			pcfg.PageLog = filepath.Join(cfg.PageDir, fmt.Sprintf("provider-%d.log", i))
			pcfg.PageStore = cfg.PageStore
		}
		p, err := provider.Serve(ln, pcfg)
		if err != nil {
			return fmt.Errorf("cluster: data provider %d: %w", i, err)
		}
		cl.Providers = append(cl.Providers, p)
	}
	return nil
}

// MetaStats sums key and value-byte counts over the cluster's metadata
// nodes, so callers can watch the GC reclaim metadata.
func (cl *Cluster) MetaStats() (keys, bytes uint64) {
	for _, n := range cl.MetaNodes {
		k, b := n.Stats()
		keys += k
		bytes += b
	}
	return keys, bytes
}

// MetaLogBytes sums the on-disk metadata log footprint over the
// cluster's durable metadata nodes (0 for an in-memory cluster).
// Compaction shrinks it.
func (cl *Cluster) MetaLogBytes() int64 {
	var total int64
	for _, n := range cl.MetaNodes {
		total += n.LogBytes()
	}
	return total
}

// CompactMetadata forces every metadata node to rewrite pair-log
// segments dominated by deleted tree nodes (dht.Node.CompactLog). No-op
// for in-memory nodes.
func (cl *Cluster) CompactMetadata() error {
	for _, n := range cl.MetaNodes {
		if err := n.CompactLog(); err != nil {
			return err
		}
	}
	return nil
}

// NewClient builds a client on the given host ("" for in-process
// clusters; a node name like "node3" or "client0" under simnet — the
// paper co-deploys readers with providers, so reusing provider node names
// reproduces that contention).
func (cl *Cluster) NewClient(host string) (*client.Client, error) {
	return cl.NewClientCfg(host, nil)
}

// NewClientCfg builds a client like NewClient but lets tweak adjust the
// client configuration first (used by the ablation benchmarks).
func (cl *Cluster) NewClientCfg(host string, tweak func(*client.Config)) (*client.Client, error) {
	cfg := client.Config{
		Net:             cl.clientNet(host),
		Sched:           cl.sched,
		VersionManager:  cl.VM.Addr(),
		ProviderManager: cl.PM.Addr(),
		MetaRing:        cl.Ring,
		MetaCacheNodes:  cl.cfg.ClientCacheNodes,
		Read:            cl.cfg.ClientRead,
		PageReplication: cl.cfg.PageReplication,
		CallTimeout:     cl.cfg.CallTimeout,
		DialTimeout:     cl.cfg.DialTimeout,
	}
	if tweak != nil {
		tweak(&cfg)
	}
	c, err := client.New(cfg)
	if err != nil {
		return nil, err
	}
	cl.clients = append(slices.DeleteFunc(cl.clients, func(w weak.Pointer[client.Client]) bool {
		return w.Value() == nil
	}), weak.Make(c))
	return c, nil
}

// Close tears every service down, and every client NewClient built that
// is still reachable.
func (cl *Cluster) Close() {
	for _, w := range cl.clients {
		if c := w.Value(); c != nil {
			c.Close()
		}
	}
	for _, p := range cl.Providers {
		p.Close()
	}
	for _, a := range cl.aux {
		a.Close()
	}
	for _, n := range cl.MetaNodes {
		n.Close()
	}
	if cl.PM != nil {
		cl.PM.Close()
	}
	if cl.VM != nil {
		cl.VM.Close()
	}
}
