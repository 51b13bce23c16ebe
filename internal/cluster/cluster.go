// Package cluster assembles complete BlobSeer deployments: a version
// manager, a provider manager, N data providers and M metadata providers,
// over any transport. It exists so tests and the benchmarks share one
// way to stand up the system.
//
// Two topologies are provided:
//
//   - StartInproc: every service on one in-process network — the
//     embedded deployment used by tests and by blobseer.StartCluster.
//   - StartSim: the paper's Grid'5000 deployment (§5) on a simulated
//     network — version manager and provider manager on dedicated nodes,
//     data and metadata providers co-deployed pairwise on the remaining
//     nodes, clients placed on any node.
//
// A cluster adds no deadline of its own: a data provider bounds its
// manager calls by the provider's default (its heartbeat period), and
// every other call by its caller's context. Kill and Close wake the
// services' periodic loops — heartbeats, the dead-writer sweeper —
// through the scheduler, so under StartSim they take no virtual time.
package cluster

import (
	"fmt"
	"path/filepath"
	"slices"
	"strconv"
	"time"
	"weak"

	"blobseer/internal/client"
	"blobseer/internal/dht"
	"blobseer/internal/obs"
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
	// NewStore builds each data provider's page engine. Nil has each
	// provider open, and close, a page store of its own: in memory, or
	// on disk under PageDir.
	NewStore func(i int) pagestore.Store
	// PageDir, when non-empty and NewStore is nil, makes the providers'
	// page stores durable: provider i's is a segmented page log at
	// PageDir/provider-<i>.log.
	PageDir string
	// PageStore tunes the page stores the providers open, in memory or
	// under PageDir.
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
	// MetaLog tunes the metadata nodes' pair logs, in memory or under
	// MetaLogDir.
	MetaLog dht.LogOptions
	// HeartbeatEvery tunes provider heartbeats (default 5s).
	HeartbeatEvery time.Duration
	// ClientRead tunes new clients' read path (page cache, hedging,
	// coalescing, fanout); zero value = defaults. Per-client overrides
	// go through NewClientCfg.
	ClientRead client.ReadTuning
	// Fault, when set, is called at every maintenance fault point of
	// every durable service — a data provider's page log, a metadata
	// node's pair log, the version manager's checkpoint — with the
	// service's role (as Kill names it), its index and the point. An
	// error aborts that service's maintenance there exactly as a process
	// death at that point would; Kill and Restart then reopen what the
	// disk holds. A test seam: no deployment sets it.
	Fault func(role string, i int, point string) error
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
	// listen opens every service's listener, at start and on Restart.
	listen listenFunc

	aux []*rpc.Client // per-provider heartbeat clients
	// clients are the clients NewClientCfg built, for Close to close the
	// ones still in use. Weak: a client its owner closed and dropped —
	// each cold-cache reader a benchmark dials — must not stay reachable,
	// page cache and all, for as long as the cluster runs.
	clients []weak.Pointer[client.Client]
}

// The four roles, spelled as blobseerd's -role flag spells them.
const (
	roleVM   = "version-manager"
	rolePM   = "provider-manager"
	roleMeta = "metadata"
	roleData = "data"
)

// listenFunc opens the listener of a role's i-th service (i is 0 for
// the two managers). Asked again for a service Restart reopens, it
// listens on the address the service had, so the metadata ring, the
// providers' manager address and every client stay valid.
type listenFunc func(role string, i int) (transport.Listener, error)

// StartInproc stands a cluster up on a single in-process network.
func StartInproc(net *transport.Inproc, sched vclock.Scheduler, cfg Config) (*Cluster, error) {
	return start(sched, cfg,
		func(string) transport.Network { return net },
		func(role string, i int) (transport.Listener, error) {
			switch role {
			case roleMeta:
				return net.Listen(fmt.Sprintf("meta-%d", i))
			case roleData:
				return net.Listen(fmt.Sprintf("data-%d", i))
			}
			return net.Listen(role)
		},
		func(int) transport.Network { return net })
}

// StartTCP stands a cluster up on the operating system's loopback TCP
// stack: every service listens on 127.0.0.1 with a kernel-assigned port.
// This is the same transport a production deployment via cmd/blobseerd
// uses, so it exercises real sockets, framing and connection pooling.
func StartTCP(sched vclock.Scheduler, cfg Config) (*Cluster, error) {
	addrs := make(map[string]string) // "role i" -> the port it got, for Restart
	return start(sched, cfg,
		func(string) transport.Network { return transport.TCP{} },
		func(role string, i int) (transport.Listener, error) {
			key := fmt.Sprint(role, i)
			at, ok := addrs[key]
			if !ok {
				at = "127.0.0.1:0"
			}
			ln, err := transport.TCP{}.Listen(at)
			if err == nil {
				addrs[key] = ln.Addr()
			}
			return ln, err
		},
		func(int) transport.Network { return transport.TCP{} })
}

// StartSim stands a cluster up on a simulated network following the
// paper's deployment: "we deploy the version manager and the provider
// manager on two distinct dedicated nodes, and we co-deploy a data
// provider and a metadata provider on the other nodes" (§5). Node names
// are "vm", "pm" and "node0".."nodeN-1"; DataProviders and MetaProviders
// should normally be equal for pairwise co-deployment.
func StartSim(net *simnet.Net, sched vclock.Scheduler, cfg Config) (*Cluster, error) {
	return start(sched, cfg,
		func(host string) transport.Network { return net.Host(host) },
		func(role string, i int) (transport.Listener, error) {
			switch role {
			case roleVM:
				return net.Host("vm").Listen(role)
			case rolePM:
				return net.Host("pm").Listen(role)
			case roleMeta:
				return net.Host(fmt.Sprintf("node%d", i)).Listen("meta")
			}
			return net.Host(fmt.Sprintf("node%d", i)).Listen(role)
		},
		func(i int) transport.Network { return net.Host(fmt.Sprintf("node%d", i)) })
}

// start wires all services of a cluster; providerNet is the network
// data provider i heartbeats from. On failure it tears down what it
// started.
func start(sched vclock.Scheduler, cfg Config,
	clientNet func(host string) transport.Network,
	listen listenFunc,
	providerNet func(i int) transport.Network,
) (*Cluster, error) {
	cfg.fillDefaults()
	cl := &Cluster{cfg: cfg, sched: sched, clientNet: clientNet, listen: listen}
	if err := cl.startServices(providerNet); err != nil {
		cl.Close()
		return nil, err
	}
	return cl, nil
}

func (cl *Cluster) startServices(providerNet func(i int) transport.Network) error {
	cfg := cl.cfg
	var err error
	if cl.VM, err = cl.openVM(); err != nil {
		return err
	}

	ln, err := cl.listen(rolePM, 0)
	if err != nil {
		return fmt.Errorf("cluster: provider manager listener: %w", err)
	}
	cl.PM = provider.ServeManager(ln, provider.ManagerConfig{Sched: cl.sched})

	metaAddrs := make([]string, cfg.MetaProviders)
	for i := 0; i < cfg.MetaProviders; i++ {
		node, err := cl.openMeta(i)
		if err != nil {
			return err
		}
		cl.MetaNodes = append(cl.MetaNodes, node)
		metaAddrs[i] = node.Addr()
	}
	cl.Ring, err = dht.NewRing(metaAddrs, cfg.Replication)
	if err != nil {
		return fmt.Errorf("cluster: metadata ring: %w", err)
	}

	for i := 0; i < cfg.DataProviders; i++ {
		// Each provider heartbeats from its own node so the simulated
		// network charges the right links.
		cl.aux = append(cl.aux, rpc.NewClient(providerNet(i), cl.sched))
		p, err := cl.openData(i)
		if err != nil {
			return err
		}
		cl.Providers = append(cl.Providers, p)
	}
	return nil
}

// openVM starts the version manager, recovering its WAL if it has one.
func (cl *Cluster) openVM() (*version.Manager, error) {
	ln, err := cl.listen(roleVM, 0)
	if err != nil {
		return nil, fmt.Errorf("cluster: version manager listener: %w", err)
	}
	m, err := version.ServeManagerDurable(ln, version.ManagerConfig{
		Sched:             cl.sched,
		DeadWriterTimeout: cl.cfg.DeadWriterTimeout,
		WALPath:           cl.cfg.VersionWALPath,
		WALSegmentBytes:   cl.cfg.VersionWALSegmentBytes,
		CheckpointEvery:   cl.cfg.VersionCheckpointEvery,
		RetainVersions:    cl.cfg.RetainVersions,
		Fault:             cl.fault(roleVM, 0),
	})
	if err != nil {
		ln.Close()
		return nil, fmt.Errorf("cluster: version manager: %w", err)
	}
	return m, nil
}

// openMeta starts metadata node i, reloading its pair log if it has one.
func (cl *Cluster) openMeta(i int) (*dht.Node, error) {
	ln, err := cl.listen(roleMeta, i)
	if err != nil {
		return nil, fmt.Errorf("cluster: metadata provider %d: %w", i, err)
	}
	opts := cl.cfg.MetaLog
	opts.Fault = cl.fault(roleMeta, i)
	node, err := dht.ServeNode(ln, cl.sched, logPath(cl.cfg.MetaLogDir, "meta", i), opts)
	if err != nil {
		ln.Close()
		return nil, fmt.Errorf("cluster: metadata provider %d: %w", i, err)
	}
	return node, nil
}

// openData starts data provider i, reopening its page log if it has
// one, and registers it with the provider manager.
func (cl *Cluster) openData(i int) (*provider.Provider, error) {
	ln, err := cl.listen(roleData, i)
	if err != nil {
		return nil, fmt.Errorf("cluster: data provider %d: %w", i, err)
	}
	pcfg := provider.Config{
		Sched:          cl.sched,
		ManagerAddr:    cl.PM.Addr(),
		Client:         cl.aux[i],
		HeartbeatEvery: cl.cfg.HeartbeatEvery,
	}
	if cl.cfg.NewStore != nil {
		pcfg.Store = cl.cfg.NewStore(i)
	} else {
		pcfg.PageLog = logPath(cl.cfg.PageDir, "provider", i)
		pcfg.PageStore = cl.cfg.PageStore
		pcfg.PageStore.Fault = cl.fault(roleData, i)
	}
	p, err := provider.Serve(ln, pcfg)
	if err != nil {
		ln.Close()
		return nil, fmt.Errorf("cluster: data provider %d: %w", i, err)
	}
	return p, nil
}

// logPath names service i's log in dir: dir/<name>-<i>.log, or "" — a
// log in memory — when dir is empty.
func logPath(dir, name string, i int) string {
	if dir == "" {
		return ""
	}
	return filepath.Join(dir, fmt.Sprintf("%s-%d.log", name, i))
}

// fault binds Config.Fault to one service; nil without one.
func (cl *Cluster) fault(role string, i int) func(point string) error {
	if cl.cfg.Fault == nil {
		return nil
	}
	return func(point string) error { return cl.cfg.Fault(role, i, point) }
}

// Kill stops a role's i-th service — role is "version-manager",
// "provider-manager", "metadata" or "data", as blobseerd's -role flag
// names them, and i is 0 for the two managers. Its listener and
// connections close, so its clients see errors, and its logs are closed
// where they stand, for Restart to reopen. Kill and Restart must not run
// concurrently with other calls on the cluster.
func (cl *Cluster) Kill(role string, i int) error {
	switch {
	case role == roleVM && i == 0:
		cl.VM.Close()
	case role == rolePM && i == 0:
		cl.PM.Close()
	case role == roleMeta && i >= 0 && i < len(cl.MetaNodes):
		cl.MetaNodes[i].Close()
	case role == roleData && i >= 0 && i < len(cl.Providers):
		cl.Providers[i].Close()
	default:
		return fmt.Errorf("cluster: no %s %d", role, i)
	}
	return nil
}

// Restart stops a role's i-th service if it still runs and brings it
// back from its durable state — the version manager's WAL, a metadata
// node's pair log, a data provider's page log — through the open path a
// deployment uses, on the same address. A service with no durable state
// (the provider manager, or one the cluster keeps in memory) has nothing
// to come back from: Restart leaves it alone and returns an error.
func (cl *Cluster) Restart(role string, i int) error {
	durable := map[string]bool{
		roleVM:   cl.cfg.VersionWALPath != "",
		roleMeta: cl.cfg.MetaLogDir != "",
		roleData: cl.cfg.NewStore == nil && cl.cfg.PageDir != "",
	}
	if !durable[role] {
		return fmt.Errorf("cluster: %s %d keeps no durable state to restart from", role, i)
	}
	if err := cl.Kill(role, i); err != nil {
		return err
	}
	switch role {
	case roleVM:
		m, err := cl.openVM()
		if err != nil {
			return err
		}
		cl.VM = m
	case roleMeta:
		n, err := cl.openMeta(i)
		if err != nil {
			return err
		}
		cl.MetaNodes[i] = n
	case roleData:
		p, err := cl.openData(i)
		if err != nil {
			return err
		}
		cl.Providers[i] = p
	}
	return nil
}

// Metrics writes every service's series, labelled with its role (as Kill
// names it) and index.
func (cl *Cluster) Metrics(s *obs.Sink) {
	cl.VM.Metrics(s.With("role", roleVM, "index", "0"))
	cl.PM.Metrics(s.With("role", rolePM, "index", "0"))
	for i, n := range cl.MetaNodes {
		n.Metrics(s.With("role", roleMeta, "index", strconv.Itoa(i)))
	}
	for i, p := range cl.Providers {
		p.Metrics(s.With("role", roleData, "index", strconv.Itoa(i)))
	}
}

// Deprecated: read the metadata nodes' store_keys and store_value_bytes
// (Metrics); kept only until internal/blast stops naming it.
func (cl *Cluster) MetaStats() (keys, bytes uint64) {
	return uint64(obs.Value(cl, "store_keys", "role", roleMeta)), uint64(obs.Value(cl, "store_value_bytes", "role", roleMeta))
}

// Deprecated: read the metadata nodes' store_log_bytes (Metrics); kept
// only until internal/blast stops naming it.
func (cl *Cluster) MetaLogBytes() int64 {
	return int64(obs.Value(cl, "store_log_bytes", "role", roleMeta))
}

// CompactMetadata forces every metadata node to rewrite pair-log
// segments dominated by deleted tree nodes (dht.Node.CompactLog), on
// disk or, for in-memory nodes, in RAM.
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
// client configuration first.
func (cl *Cluster) NewClientCfg(host string, tweak func(*client.Config)) (*client.Client, error) {
	cfg := client.Config{
		Net:             cl.clientNet(host),
		Sched:           cl.sched,
		VersionManager:  cl.VM.Addr(),
		ProviderManager: cl.PM.Addr(),
		MetaRing:        cl.Ring,
		Read:            cl.cfg.ClientRead,
		PageReplication: cl.cfg.PageReplication,
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
