// Command blobseerd runs one BlobSeer service role over TCP. A real
// deployment runs one version manager, one provider manager, and any
// number of data and metadata providers, mirroring the paper's Grid'5000
// setup (§5).
//
// Examples:
//
//	blobseerd -role version-manager  -listen :4400
//	blobseerd -role provider-manager -listen :4401
//	blobseerd -role metadata         -listen :4402 -debug-addr 127.0.0.1:6402
//	blobseerd -role data             -listen :4403 \
//	          -manager vm-host:4401 -advertise node7:4403 -disk /var/lib/blobseer/pages.log
//
// Clients connect with blobseer.Dial, listing the version manager, the
// provider manager and every metadata provider address. -debug-addr
// serves the role's series as Prometheus text at /metrics (curl
// 127.0.0.1:6402/metrics) and the profiler at /debug/pprof/ (go tool
// pprof http://127.0.0.1:6402/debug/pprof/profile).
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // registers the profiler on http.DefaultServeMux
	"os"
	"os/signal"
	"syscall"
	"time"

	"blobseer/internal/obs"
	"blobseer/internal/pagestore"
	"blobseer/internal/provider"
	"blobseer/internal/rpc"
	"blobseer/internal/transport"
	"blobseer/internal/vclock"
	"blobseer/internal/version"

	blobdht "blobseer/internal/dht"
)

// A process runs one role with one log, so the log settings say each
// thing once, whatever the role; TestFlagCount pins how many flags
// there are.
var (
	role          = flag.String("role", "", "version-manager | provider-manager | metadata | data")
	listen        = flag.String("listen", ":0", "address to listen on")
	managerAddr   = flag.String("manager", "", "provider manager address (data role)")
	advertise     = flag.String("advertise", "", "address clients should dial (data role; defaults to the listen address)")
	diskPath      = flag.String("disk", "", "durable storage log path (data role: pages; metadata role: tree-node pairs; default RAM)")
	walPath       = flag.String("wal", "", "write-ahead log path for version state (version-manager role; default in-memory)")
	walSync       = flag.Bool("wal-sync", true, "fsync version WAL commits; concurrent updates share fsyncs via group commit (version-manager role)")
	logSync       = flag.Bool("sync", false, "fsync records of the -disk log before a put or delete acknowledges (data and metadata roles)")
	segmentBytes  = flag.Int64("segment-bytes", 64<<20, "roll the role's log (-disk or -wal) into a new segment past this size")
	snapshotEvery = flag.Int("snapshot-every", 4096, "snapshot the role's state — page index, metadata index, or version state, compacting the WAL — every N logged records; 0 = manual only")
	compactRatio  = flag.Float64("compact-ratio", 0.5, "rewrite -disk log segments whose live ratio drops below this; 0 disables (data and metadata roles)")
	retain        = flag.Int("retain-versions", 1, "keep-last-N retention policy: EXPIRE keeps at least this many newest versions per blob (version-manager role)")
	deadTimeout   = flag.Duration("dead-writer-timeout", 0, "abort updates of silent writers after this duration (version-manager role; 0 disables)")
	heartbeat     = flag.Duration("heartbeat", 5*time.Second, "heartbeat period (data role)")
	rpcTimeout    = flag.Duration("rpc-timeout", 0, "per-call deadline on manager-facing RPCs, dial included (data role; 0 = heartbeat period)")
	debugAddr     = flag.String("debug-addr", "", "serve /metrics and /debug/pprof/ on this address (empty: off)")
)

func main() {
	flag.Parse()

	sched := vclock.NewReal()
	net := transport.TCP{}
	ln, err := net.Listen(*listen)
	if err != nil {
		log.Fatalf("listen %s: %v", *listen, err)
	}

	var svc interface {
		Close()
		obs.Source
	}
	switch *role {
	case "version-manager":
		m, err := version.ServeManagerDurable(ln, version.ManagerConfig{
			Sched:             sched,
			DeadWriterTimeout: *deadTimeout,
			WALPath:           *walPath,
			WALSync:           *walPath != "" && *walSync, // durability is the point of -wal
			WALSegmentBytes:   *segmentBytes,
			CheckpointEvery:   *snapshotEvery,
			RetainVersions:    *retain,
		})
		if err != nil {
			log.Fatalf("start version manager: %v", err)
		}
		svc = m
		log.Printf("version manager listening on %s", m.Addr())

	case "provider-manager":
		m := provider.ServeManager(ln, provider.ManagerConfig{
			Sched:  sched,
			Expiry: 30 * time.Second,
		})
		svc = m
		log.Printf("provider manager listening on %s", m.Addr())

	case "metadata":
		var n *blobdht.Node
		if *diskPath != "" {
			n, err = blobdht.ServeDurableNode(ln, sched, *diskPath, blobdht.LogOptions{
				Sync:          *logSync,
				SegmentBytes:  *segmentBytes,
				SnapshotEvery: *snapshotEvery,
				CompactRatio:  *compactRatio,
			})
			if err != nil {
				log.Fatalf("start metadata provider: %v", err)
			}
		} else {
			n = blobdht.ServeNode(ln, sched)
		}
		svc = n
		log.Printf("metadata provider listening on %s", n.Addr())

	case "data":
		if *managerAddr == "" {
			log.Fatal("data role requires -manager")
		}
		cfg := provider.Config{
			Sched:          sched,
			ManagerAddr:    *managerAddr,
			Client:         rpc.NewClient(net, sched),
			HeartbeatEvery: *heartbeat,
			CallTimeout:    *rpcTimeout,
		}
		if *diskPath != "" {
			cfg.PageLog = *diskPath
			cfg.PageStore = pagestore.DiskOptions{
				Sync:          *logSync,
				SegmentBytes:  *segmentBytes,
				SnapshotEvery: *snapshotEvery,
				CompactRatio:  *compactRatio,
			}
		}
		p, err := serveDataProvider(ln, cfg, *advertise)
		if err != nil {
			log.Fatalf("start data provider: %v", err)
		}
		svc = p
		log.Printf("data provider listening on %s (manager %s)", p.Addr(), *managerAddr)

	default:
		fmt.Fprintln(os.Stderr, "unknown -role; want version-manager, provider-manager, metadata or data")
		flag.Usage()
		os.Exit(2)
	}

	if *debugAddr != "" {
		go func() { log.Fatalf("debug server: %v", debugServer(*debugAddr, svc).ListenAndServe()) }()
		log.Printf("debug endpoints at http://%s/metrics and /debug/pprof/", *debugAddr)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Print("shutting down")
	svc.Close()
}

// debugServer serves src's series at /metrics and the profiler at
// /debug/pprof/ on addr, from a mux of its own that hands only
// /debug/pprof/ to the default mux, where nothing but the profiler
// registers.
func debugServer(addr string, src obs.Source) *http.Server {
	mux := http.NewServeMux()
	mux.Handle("/metrics", obs.Handler(src))
	mux.Handle("/debug/pprof/", http.DefaultServeMux)
	return &http.Server{Addr: addr, Handler: mux, ReadHeaderTimeout: 10 * time.Second}
}

// serveDataProvider wraps provider.Serve, rewriting the advertised
// address when the operator knows a better name than the bind address
// (e.g. behind NAT or with a 0.0.0.0 bind).
func serveDataProvider(ln transport.Listener, cfg provider.Config, advertise string) (*provider.Provider, error) {
	if advertise == "" {
		return provider.Serve(ln, cfg)
	}
	return provider.Serve(advertisedListener{ln, advertise}, cfg)
}

// advertisedListener overrides Addr with an operator-supplied name.
type advertisedListener struct {
	transport.Listener
	addr string
}

func (a advertisedListener) Addr() string { return a.addr }
