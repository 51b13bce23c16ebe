package blast

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"blobseer"
	"blobseer/internal/client"
	"blobseer/internal/cluster"
	"blobseer/internal/pagestore"
	"blobseer/internal/vclock"
)

// Rig shape, identical for every workload: a durable cluster on
// loopback TCP inside this process.
const (
	dataProviders = 4
	metaProviders = 4
)

// rigOptions are the knobs a workload may move off their defaults.
type rigOptions struct {
	// pageSegment is the page logs' segment size (0: the 64 MB default).
	pageSegment int64
}

// rig is one running cluster and the directory holding its files.
type rig struct {
	dir   string
	cl    *cluster.Cluster
	disks []*pagestore.Disk
	meta  []string // metadata provider addresses, in ring order
}

// startRig starts a cluster in a fresh directory under h.base. Page,
// metadata and WAL fsync are off and group commit is on; maintenance is
// triggered by record counts only (heartbeats every hour, no dead-writer
// sweeper), so it fires at the same operation index on every run.
func (h *harness) startRig(o rigOptions) (*rig, error) {
	dir, err := os.MkdirTemp(h.base, "rig-")
	if err != nil {
		return nil, err
	}
	r := &rig{dir: dir}
	for i := 0; i < dataProviders; i++ {
		d, err := pagestore.OpenDisk(filepath.Join(dir, fmt.Sprintf("provider-%d.log", i)),
			pagestore.DiskOptions{GroupCommit: true, SegmentBytes: o.pageSegment})
		if err != nil {
			r.close()
			return nil, err
		}
		r.disks = append(r.disks, d)
	}
	r.cl, err = cluster.StartTCP(vclock.NewReal(), cluster.Config{
		DataProviders: dataProviders,
		MetaProviders: metaProviders,
		// NewStore is used in both runs so the code path is the same;
		// only the traced run wraps the engine.
		NewStore: func(i int) pagestore.Store {
			if h.taps != nil {
				return timedStore{Store: r.disks[i], t: h.taps}
			}
			return r.disks[i]
		},
		VersionWALPath: filepath.Join(dir, "vm.wal"),
		MetaLogDir:     dir,
		HeartbeatEvery: time.Hour,
	})
	if err != nil {
		r.close()
		return nil, err
	}
	for _, n := range r.cl.MetaNodes {
		r.meta = append(r.meta, n.Addr())
	}
	if h.taps != nil {
		roles := map[string]role{r.cl.VM.Addr(): roleVersion, r.cl.PM.Addr(): roleProviderManager}
		for _, p := range r.cl.Providers {
			roles[p.Addr()] = roleData
		}
		for _, a := range r.meta {
			roles[a] = roleMeta
		}
		h.taps.roleOf = roles
	}
	return r, nil
}

// close stops the cluster and removes its files.
func (r *rig) close() {
	if r.cl != nil {
		r.cl.Close()
	}
	for _, d := range r.disks {
		d.Close() // providers do not own stores handed in through NewStore
	}
	os.RemoveAll(r.dir)
}

// diskBytes sums the files under the rig's directory: page logs,
// metadata logs, VM WAL and their snapshots.
func (r *rig) diskBytes() (int64, error) {
	var total int64
	err := filepath.WalkDir(r.dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// blobAPI is the slice of the public Blob API the workloads drive.
// *blobseer.Blob implements it directly; that is what every untraced
// run times.
type blobAPI interface {
	Append(ctx context.Context, buf []byte) (blobseer.Version, error)
	Write(ctx context.Context, buf []byte, offset uint64) (blobseer.Version, error)
	Read(ctx context.Context, v blobseer.Version, buf []byte, offset uint64) error
	Sync(ctx context.Context, v blobseer.Version) error
	Recent(ctx context.Context) (blobseer.Version, uint64, error)
	Expire(ctx context.Context, upTo blobseer.Version) (blobseer.Version, error)
	GC(ctx context.Context) (blobseer.GCStats, error)
}

// session is one client and its handle on the workload's blob.
type session struct {
	blobAPI
	id     blobseer.BlobID
	public *blobseer.Client // untraced
	traced *client.Client   // traced: built on the tapped transport
	mark   cacheStats       // counters at the start of the current round
}

// dial builds a fresh client (cold page and metadata caches). id 0
// creates the blob with the given page size, anything else opens it.
func (h *harness) dial(r *rig, id blobseer.BlobID, pageSize uint32) (*session, error) {
	s := &session{id: id}
	var err error
	if h.taps == nil {
		s.public, err = blobseer.Dial(blobseer.ClientOptions{
			VersionManager:    r.cl.VM.Addr(),
			ProviderManager:   r.cl.PM.Addr(),
			MetadataProviders: r.meta,
			ConnsPerHost:      1,
		})
		if err != nil {
			return nil, err
		}
		var b *blobseer.Blob
		if id == 0 {
			b, err = s.public.Create(h.ctx, blobseer.Options{PageSize: pageSize})
		} else {
			b, err = s.public.Open(h.ctx, id)
		}
		if err != nil {
			s.public.Close()
			return nil, err
		}
		s.blobAPI, s.id = b, b.ID()
	} else {
		s.traced, err = r.cl.NewClientCfg("", func(c *client.Config) {
			c.Net = tapNet{Network: c.Net, t: h.taps}
			c.ConnsPerHost = 1
		})
		if err != nil {
			return nil, err
		}
		if id == 0 {
			if pageSize == 0 {
				pageSize = 64 << 10 // the public API's default
			}
			if s.id, err = s.traced.Create(h.ctx, pageSize); err != nil {
				s.traced.Close()
				return nil, err
			}
		}
		s.blobAPI = tracedBlob{c: s.traced, id: s.id}
	}
	h.live = append(h.live, s)
	return s, nil
}

// dialAll builds one fresh session per client goroutine on blob id.
func (h *harness) dialAll(r *rig, id blobseer.BlobID) ([]*session, error) {
	return h.sessions(r, id, 0)
}

// create makes the workload's blob with the given page size (0: the
// 64 KiB default) and builds one session per client goroutine on it.
func (h *harness) create(r *rig, pageSize uint32) ([]*session, error) {
	return h.sessions(r, 0, pageSize)
}

func (h *harness) sessions(r *rig, id blobseer.BlobID, pageSize uint32) ([]*session, error) {
	ss := make([]*session, 0, h.clients)
	for range h.clients {
		s, err := h.dial(r, id, pageSize)
		if err != nil {
			h.hangUp(ss)
			return nil, err
		}
		ss, id = append(ss, s), s.id // the first session may have created the blob
	}
	return ss, nil
}

// hangUp folds the sessions' cache counters into the round and closes
// their clients.
func (h *harness) hangUp(ss []*session) {
	for _, s := range ss {
		h.collect(s)
		for i, l := range h.live {
			if l == s {
				h.live = append(h.live[:i], h.live[i+1:]...)
				break
			}
		}
		if s.public != nil {
			s.public.Close()
		} else {
			s.traced.Close()
		}
	}
}

// tracedBlob adapts the internal client, which the traced run needs for
// its transport seam and metadata-cache counters, to blobAPI.
type tracedBlob struct {
	c  *client.Client
	id blobseer.BlobID
}

func (b tracedBlob) Append(ctx context.Context, buf []byte) (blobseer.Version, error) {
	return b.c.Append(ctx, b.id, buf)
}

func (b tracedBlob) Write(ctx context.Context, buf []byte, offset uint64) (blobseer.Version, error) {
	return b.c.Write(ctx, b.id, buf, offset)
}

func (b tracedBlob) Read(ctx context.Context, v blobseer.Version, buf []byte, offset uint64) error {
	return b.c.Read(ctx, b.id, v, buf, offset)
}

func (b tracedBlob) Sync(ctx context.Context, v blobseer.Version) error {
	return b.c.Sync(ctx, b.id, v)
}

func (b tracedBlob) Recent(ctx context.Context) (blobseer.Version, uint64, error) {
	return b.c.Recent(ctx, b.id)
}

func (b tracedBlob) Expire(ctx context.Context, upTo blobseer.Version) (blobseer.Version, error) {
	floor, _, err := b.c.ExpireVersions(ctx, b.id, upTo)
	return floor, err
}

func (b tracedBlob) GC(ctx context.Context) (blobseer.GCStats, error) {
	return b.c.CollectGarbage(ctx, b.id)
}
