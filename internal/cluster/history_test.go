package cluster

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blobseer/internal/client"
	"blobseer/internal/dht"
	"blobseer/internal/rpc"
	"blobseer/internal/seglog"
	"blobseer/internal/simnet"
	"blobseer/internal/vclock"
	"blobseer/internal/wire"
)

var (
	historySeed  = flag.Uint64("history-seed", 0, "replay this one seed of TestHistoryUnderFaults (0 = the default budget)")
	historySeeds = flag.Int("history-seeds", 8, "seeds TestHistoryUnderFaults runs by default (at most 2 under -race)")
)

// The shape of one history: clients, the operations each issues, the
// blobs they share, and the fault windows.
const (
	histClients    = 4
	histOps        = 40 // per client
	histBlobs      = 2
	histPageSize   = 256
	histDeadWriter = 100 * time.Millisecond // the version manager's sweeper window
	histOutage     = 10 * time.Millisecond  // how long the partition and the kill last
	histProbeTries = 5                      // the liveness probe's appends per blob
	histBranches   = 3                      // branches the clients take, at most (give or take a race)
	// histRepeats is how many of the first seeds run twice: the second
	// run's record must be the first's, virtual times and all.
	histRepeats = 8
)

// histLogs tunes the page and metadata logs: small segments, so index
// snapshots and compaction run beside the traffic, and the writers'
// reclaims leave tombstones for compaction to drop.
var histLogs = dht.LogOptions{SegmentBytes: 4 << 10, SnapshotEvery: 16, CompactRatio: 0.5}

// TestHistoryUnderFaults records what concurrent clients see of a
// durable simulated cluster whose links delay and reset, one of whose
// links is partitioned for a while and one of whose services is killed
// — its log left with a torn tail, as a crash mid-append leaves it — and
// restarted, and checks the record against the version semantics
// (§2.1):
//
//   - per blob, acknowledged writes hold distinct versions, and a write
//     that returned before another was invoked holds the smaller one;
//   - Recent never goes back across calls that do not overlap;
//   - every successful read of (blob, v, range) returns the reference:
//     the bytes of the newest readable version below v with v's payload
//     written at its offset (an append's is Size(v) − len(payload)), so
//     an update applied in part fails the check;
//   - a branch never observes a parent write made past its branch point:
//     clients branch a blob at a version Recent showed, and the branch
//     joins the blobs they write and read. Its reference starts from the
//     parent's bytes at the branch point and takes its own writes only;
//   - progress: the version manager's sweeper aborts an update only
//     after its dead-writer timeout of silence since the writer's ASSIGN
//     or the manager's start, whichever is later, so a write that learns
//     sooner that its version was aborted owes it to another update's
//     failure or abandonment (see progress).
//
// Clients also abandon updates: a bare ASSIGN that nothing completes,
// for the version manager's sweeper to abort. A failed operation is no
// violation, but a wedged blob is: once the run is quiet and a sweeper
// window has passed, every durable service restarts on what its log
// recovered, and an unaligned append to each blob must then go through
// within a few tries. The checker then settles every failed write: its
// version is either readable — and then it must explain that version's
// bytes — or aborted. A failing seed prints how to rerun it.
func TestHistoryUnderFaults(t *testing.T) {
	n := *historySeeds
	if raceEnabled {
		n = min(n, 2)
	}
	seeds := []uint64{*historySeed}
	if *historySeed == 0 {
		seeds = seeds[:0]
		for s := uint64(1); s <= uint64(n); s++ {
			seeds = append(seeds, s)
		}
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			defer func() {
				if t.Failed() {
					t.Logf("rerun: go test ./internal/cluster -run 'TestHistoryUnderFaults' -history-seed=%d "+
						"(one simulated goroutine runs at a time)", seed)
				}
			}()
			h, err := runHistory(t.TempDir(), seed)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range h.check() {
				t.Error(v)
			}
			if h.snapshots.Load() == 0 || h.checkpoints.Load() == 0 {
				t.Errorf("%d index snapshots and %d WAL checkpoints published; the run must have both",
					h.snapshots.Load(), h.checkpoints.Load())
			}
			if t.Failed() {
				t.Log("faults:", h.chaos)
			}
			if seed > histRepeats {
				return
			}
			again, err := runHistory(t.TempDir(), seed)
			if err != nil {
				t.Fatal(err)
			}
			if first, second := h.record(), again.record(); first != second {
				t.Errorf("a rerun recorded another history:\n%s", seriesDiff(first, second))
			}
		})
	}
}

// histOp is one operation of a history: what a client asked, what it
// got back, and when, in virtual time.
type histOp struct {
	client   int
	kind     string // "write", "append", "read", "recent", "size", "branch" or "abandon"
	blob     wire.BlobID
	inv, ret time.Duration
	err      error
	off      uint64       // write and read: the offset asked
	data     []byte       // write and append: the payload; read: the bytes returned
	v        wire.Version // read and size: the version asked; the others: the one returned
	size     uint64       // recent and size: the size returned
}

// String names the operation, and for a failed one why it failed.
func (op *histOp) String() string {
	s := fmt.Sprintf("client %d's %s [%v, %v]", op.client, op.kind, op.inv, op.ret)
	if op.err != nil {
		s += fmt.Sprintf(", which failed: %v", op.err)
	}
	return s
}

// branchPoint is where a branch leaves its parent.
type branchPoint struct {
	parent wire.BlobID
	at     wire.Version
}

// history is one run's record and what the quiet cluster said after it.
type history struct {
	mu  sync.Mutex
	ops []histOp
	// blobs are those the clients share, the branches they took
	// included, and branches says where each branch left its parent.
	blobs    []wire.BlobID
	branches map[wire.BlobID]branchPoint
	// settled holds, per blob, the bytes of every version that is
	// readable once the run is quiet, and recent the newest of them.
	settled map[wire.BlobID]map[wire.Version][]byte
	recent  map[wire.BlobID]wire.Version
	chaos   []string // the faults chaos injected, and when
	stuck   []string // blobs the liveness probe could not append to
	// vmStarts are the times the version manager started: the cluster's
	// start and every restart, each read before the manager reads its own.
	vmStarts []time.Duration
	// snapshots and checkpoints count the index snapshots and the WAL
	// checkpoints that went live (maintenance).
	snapshots, checkpoints atomic.Int64
}

// maintenance is the run's Config.Fault: it fails nothing, and counts
// the snapshots and checkpoints that reach their rename.
func (h *history) maintenance(role string, _ int, point string) error {
	switch {
	case point == "snap-renamed":
		h.snapshots.Add(1)
	case role == roleVM && point == "renamed":
		h.checkpoints.Add(1)
	}
	return nil
}

// record renders what a rerun of the seed must repeat: every operation
// with its virtual times, outcome and payload, then the chaos log.
func (h *history) record() string {
	var b strings.Builder
	for i := range h.ops {
		op := &h.ops[i]
		fmt.Fprintf(&b, "%v: blob %v off %d v %d size %d data %x\n", op, op.blob, op.off, op.v, op.size, op.data)
	}
	for _, c := range h.chaos {
		fmt.Fprintln(&b, c)
	}
	return b.String()
}

func runHistory(dir string, seed uint64) (*history, error) {
	clock := vclock.NewVirtual(10 * time.Minute)
	net := simnet.New(clock, simnet.Config{Faults: simnet.FaultPlan{
		Seed: seed, Delay: 0.05, MaxDelay: 2 * time.Millisecond, Reset: 0.005,
	}})
	h := &history{settled: make(map[wire.BlobID]map[wire.Version][]byte), recent: make(map[wire.BlobID]wire.Version),
		branches: make(map[wire.BlobID]branchPoint)}
	var err error
	if simErr := clock.Run(func() { err = h.run(clock, net, dir, seed) }); simErr != nil {
		return nil, fmt.Errorf("simulation: %w", simErr)
	}
	return h, err
}

func (h *history) run(clock *vclock.Virtual, net *simnet.Net, dir string, seed uint64) error {
	ctx := context.Background()
	cfg := Config{
		DataProviders:     3,
		MetaProviders:     3,
		PageDir:           filepath.Join(dir, "pages"),
		MetaLogDir:        filepath.Join(dir, "meta"),
		VersionWALPath:    filepath.Join(dir, "vm", "wal"),
		DeadWriterTimeout: histDeadWriter,
		// Beats well inside the run, so HEARTBEAT traffic, and the faults
		// that hit it, are part of every history.
		HeartbeatEvery: histOutage / 2,
		// Every store maintains itself beside the traffic and the faults:
		// index snapshots and compaction in the page and metadata logs,
		// checkpoints in the version WAL.
		PageStore:              histLogs,
		MetaLog:                histLogs,
		VersionWALSegmentBytes: 1 << 10,
		VersionCheckpointEvery: 16,
		Fault:                  h.maintenance,
	}
	// A fault can fail a provider's registration, and the start with it:
	// start again, on the same (still empty) durable state.
	h.vmStarts = append(h.vmStarts, clock.Now())
	cl, err := StartSim(net, clock, cfg)
	for try := 0; err != nil && try < 3; try++ {
		cl, err = StartSim(net, clock, cfg)
	}
	if err != nil {
		return err
	}
	defer cl.Close()
	clients := make([]*client.Client, histClients)
	for i := range clients {
		if clients[i], err = cl.NewClient(fmt.Sprintf("client%d", i)); err != nil {
			return err
		}
	}
	h.blobs = make([]wire.BlobID, histBlobs)
	for i := range h.blobs {
		if err := settleRetry(clock, func() (err error) {
			h.blobs[i], err = clients[0].Create(ctx, histPageSize)
			return err
		}); err != nil {
			return fmt.Errorf("creating blob %d: %w", i, err)
		}
	}

	var done atomic.Int64
	vm := cl.VM.Addr() // a restart keeps it
	err = vclock.Parallel(clock, histClients+1, func(i int) error {
		rng := rand.New(rand.NewPCG(seed, uint64(i)))
		if i == histClients {
			return h.chaosMonkey(clock, net, cl, rng, &done)
		}
		// Abandoned updates leave from the client's own host.
		abandoner := rpc.NewClient(net.Host(fmt.Sprintf("client%d", i)), clock)
		defer abandoner.Close()
		abandon := func(blob wire.BlobID, size uint64) {
			_, _ = abandoner.Call(context.Background(), vm, &wire.AssignReq{Blob: blob, Size: size, Append: true})
		}
		h.workload(clock, clients[i], i, rng, abandon, &done)
		return nil
	})
	if err != nil {
		return err
	}

	// Quiet: every update whose writer gave up is swept, so each version
	// up to the newest readable one is either readable or aborted. Then
	// every durable service comes back from its log, so what the probe
	// and the settle read is what the logs recovered — the torn tail the
	// chaos left included — not what a process remembered.
	clock.Sleep(3 * histDeadWriter)
	h.vmStarts = append(h.vmStarts, clock.Now())
	if err := restart(cl, roleVM, 0); err != nil {
		return err
	}
	for i := range cl.MetaNodes {
		if err := restart(cl, roleMeta, i); err != nil {
			return err
		}
	}
	for i := range cl.Providers {
		if err := restart(cl, roleData, i); err != nil {
			return err
		}
	}
	chk, err := cl.NewClient("checker")
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewPCG(seed, histClients+1))
	for _, blob := range h.blobs {
		h.probe(clock, chk, blob, rng)
	}
	for _, blob := range h.blobs {
		if err := h.settle(clock, chk, blob); err != nil {
			return fmt.Errorf("settling blob %v: %w", blob, err)
		}
	}
	return nil
}

// settleRetry calls op until it succeeds or finds its version aborted:
// the links still fault once the run is quiet.
func settleRetry(clock *vclock.Virtual, op func() error) error {
	err := op()
	for try := 0; err != nil && wire.CodeOf(err) != wire.CodeAborted && try < 20; try++ {
		clock.Sleep(time.Millisecond)
		err = op()
	}
	return err
}

// probe is the liveness check: an append to a quiet blob goes through
// within histProbeTries tries, whatever the run aborted. The blob's size
// is a page multiple only by chance, so the append is unaligned and
// merges the bytes of its latest surviving predecessor. Each try is
// recorded, so check holds the one that lands to the reference too.
func (h *history) probe(clock *vclock.Virtual, c *client.Client, blob wire.BlobID, rng *rand.Rand) {
	var err error
	for range histProbeTries {
		op := histOp{client: histClients, kind: "append", blob: blob, data: payload(rng), inv: clock.Now()}
		op.v, op.err = c.Append(context.Background(), blob, op.data)
		op.ret, err = clock.Now(), op.err
		h.ops = append(h.ops, op)
		if err == nil {
			return
		}
		clock.Sleep(histOutage)
	}
	h.stuck = append(h.stuck, fmt.Sprintf("blob %v: no append went through in %d tries once the run was quiet; the last failed with %v", blob, histProbeTries, err))
}

// settle reads every readable version of blob, whole: of a branch, its
// branch point and every version after it; the versions before belong
// to its parent.
func (h *history) settle(clock *vclock.Virtual, c *client.Client, blob wire.BlobID) error {
	ctx := context.Background()
	var recent wire.Version
	if err := settleRetry(clock, func() (err error) {
		recent, _, err = c.Recent(ctx, blob)
		return err
	}); err != nil {
		return err
	}
	contents := map[wire.Version][]byte{0: {}}
	first := wire.Version(1)
	if bp, ok := h.branches[blob]; ok {
		contents, first = map[wire.Version][]byte{}, bp.at
	}
	for v := first; v <= recent; v++ {
		err := settleRetry(clock, func() error { return c.Sync(ctx, blob, v) })
		if wire.CodeOf(err) == wire.CodeAborted {
			continue
		}
		var size uint64
		if err == nil {
			err = settleRetry(clock, func() (err error) {
				size, err = c.Size(ctx, blob, v)
				return err
			})
		}
		buf := make([]byte, size)
		if err == nil {
			err = settleRetry(clock, func() error { return c.Read(ctx, blob, v, buf, 0) })
		}
		if err != nil {
			return fmt.Errorf("version %d: %w", v, err)
		}
		contents[v] = buf
	}
	h.settled[blob], h.recent[blob] = contents, recent
	return nil
}

// chaosMonkey partitions one client from one service node for a while
// once a quarter of the operations are done, and kills one service once
// half of them are, tears the tail of its log and restarts it.
func (h *history) chaosMonkey(clock *vclock.Virtual, net *simnet.Net, cl *Cluster, rng *rand.Rand, done *atomic.Int64) error {
	logf := func(format string, args ...any) {
		h.chaos = append(h.chaos, fmt.Sprintf("%v: ", clock.Now())+fmt.Sprintf(format, args...))
	}
	waitFor := func(n int64) {
		for done.Load() < n {
			clock.Sleep(time.Millisecond)
		}
	}
	const total = histClients * histOps
	hosts := []string{"vm", "pm", "node0", "node1", "node2"}
	waitFor(total / 4)
	a, b := fmt.Sprintf("client%d", rng.IntN(histClients)), hosts[rng.IntN(len(hosts))]
	logf("partition %s from %s", a, b)
	net.Partition(a, b)
	clock.Sleep(histOutage)
	net.Heal(a, b)
	logf("heal")

	waitFor(total / 2)
	role := []string{roleData, roleMeta, roleVM}[rng.IntN(3)]
	i := 0
	if role != roleVM {
		i = rng.IntN(3)
	}
	logf("kill %s %d", role, i)
	if err := cl.Kill(role, i); err != nil {
		return err
	}
	torn, err := tearTail(cl.cfg, role, i, rng)
	if err != nil {
		return err
	}
	logf("tore %s", torn)
	clock.Sleep(histOutage)
	if role == roleVM {
		h.vmStarts = append(h.vmStarts, clock.Now())
	}
	err = restart(cl, role, i)
	logf("restarted: %v", err)
	return err
}

// restart restarts a role's i-th service. A restarted data provider
// registers again, which a fault can fail.
func restart(cl *Cluster, role string, i int) error {
	err := cl.Restart(role, i)
	for try := 0; err != nil && try < 3; try++ {
		err = cl.Restart(role, i)
	}
	return err
}

// histRecMagic is each durable role's record magic, spelled out here, as
// the seglog tests spell their layouts, so a torn frame is one its log
// would have written.
var histRecMagic = map[string]uint32{roleVM: 0x5EE5B10C, roleMeta: 0xD47A5EE5, roleData: 0xB10B5EE5}

// tearTail leaves what a crash mid-append leaves in the log of a role's
// killed i-th service: a seeded strict prefix of a well-formed record
// frame behind the last record of its highest segment. It only appends,
// so no acknowledged byte is lost. It returns what it did, for the fault
// timeline.
func tearTail(cfg Config, role string, i int, rng *rand.Rand) (string, error) {
	base := cfg.VersionWALPath
	switch role {
	case roleMeta:
		base = filepath.Join(cfg.MetaLogDir, fmt.Sprintf("meta-%d.log", i))
	case roleData:
		base = filepath.Join(cfg.PageDir, fmt.Sprintf("provider-%d.log", i))
	}
	ft := &seglog.Format{Name: role, RecMagic: histRecMagic[role]}
	// Segment names carry fixed-width indices, so the highest sorts last.
	segs, err := filepath.Glob(base + ".[0-9]*")
	if err != nil || len(segs) == 0 {
		return "", fmt.Errorf("tearing %s %d: segments %v, %v", role, i, segs, err)
	}
	path := segs[len(segs)-1]
	frame := ft.Frame(payload(rng))
	torn := frame[:1+rng.IntN(len(frame)-1)]
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return "", err
	}
	_, err = f.Write(torn)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return fmt.Sprintf("%d of a %d-byte frame onto %s", len(torn), len(frame), filepath.Base(path)), err
}

// workload issues one client's operations: writes at offsets up to the
// size it last saw, appends, reads of ranges of versions it saw
// published, Recent and Size, now and then an abandoned update, and a
// few branches at versions it saw published.
func (h *history) workload(clock *vclock.Virtual, c *client.Client, id int, rng *rand.Rand,
	abandon func(wire.BlobID, uint64), done *atomic.Int64) {
	ctx := context.Background()
	type seen struct {
		v    wire.Version
		size uint64
	}
	known := make(map[wire.BlobID][]seen) // what Recent returned, in order
	for range histOps {
		clock.Sleep(time.Duration(rng.IntN(2000)) * time.Microsecond)
		h.mu.Lock()
		op := histOp{client: id, blob: h.blobs[rng.IntN(len(h.blobs))]}
		branchable := len(h.branches) < histBranches
		h.mu.Unlock()
		k := known[op.blob]
		var last seen
		if len(k) > 0 {
			last = k[len(k)-1]
		}
		switch p := rng.IntN(100); {
		case p < 30:
			op.kind, op.off, op.data = "write", rng.Uint64N(last.size+1), payload(rng)
		case p < 55:
			op.kind, op.data = "append", payload(rng)
		case p < 60:
			// Not a client operation: the sweeper aborts what it assigned,
			// and progress reads only when it was sent.
			op.kind = "abandon"
		case p < 64 && len(k) > 0 && branchable:
			op.kind, op.v = "branch", k[rng.IntN(len(k))].v
		case p < 75 && len(k) > 0:
			s := k[rng.IntN(len(k))]
			op.kind, op.v, op.off = "read", s.v, rng.Uint64N(s.size+1)
			op.data = make([]byte, rng.Uint64N(s.size-op.off+1))
		case p < 85 && len(k) > 0:
			op.kind, op.v = "size", k[rng.IntN(len(k))].v
		default:
			op.kind = "recent"
		}
		op.inv = clock.Now()
		switch op.kind {
		case "abandon":
			abandon(op.blob, 1+rng.Uint64N(3*histPageSize))
		case "write":
			op.v, op.err = c.Write(ctx, op.blob, op.data, op.off)
		case "append":
			op.v, op.err = c.Append(ctx, op.blob, op.data)
		case "read":
			op.err = c.Read(ctx, op.blob, op.v, op.data, op.off)
		case "size":
			op.size, op.err = c.Size(ctx, op.blob, op.v)
		case "recent":
			if op.v, op.size, op.err = c.Recent(ctx, op.blob); op.err == nil {
				known[op.blob] = append(k, seen{op.v, op.size})
			}
		case "branch":
			var b wire.BlobID
			if b, op.err = c.Branch(ctx, op.blob, op.v); op.err == nil {
				h.mu.Lock()
				h.blobs = append(h.blobs, b)
				h.branches[b] = branchPoint{op.blob, op.v}
				h.mu.Unlock()
			}
		}
		op.ret = clock.Now()
		h.mu.Lock()
		h.ops = append(h.ops, op)
		h.mu.Unlock()
		done.Add(1)
		if op.err != nil {
			clock.Sleep(histOutage) // back off, as a client would, so the run outlasts an outage
		}
	}
}

// payload is one update's bytes: up to three pages, rarely aligned.
func payload(rng *rand.Rand) []byte {
	p := make([]byte, 1+rng.IntN(3*histPageSize))
	for i := range p {
		p[i] = byte(rng.Uint32())
	}
	return p
}

// apply is what update op makes of base, the bytes of the newest
// readable version below its own, when its version reads size bytes; ok
// is false when no offset puts its payload there.
func apply(base []byte, op *histOp, size int) (out []byte, ok bool) {
	off := int(op.off)
	if op.kind == "append" {
		off = size - len(op.data)
	}
	if off < 0 || off > len(base) {
		return nil, false
	}
	out = make([]byte, max(len(base), off+len(op.data)))
	copy(out, base)
	copy(out[off:], op.data)
	return out, true
}

// diffAt is the first offset at which a and b differ, or the length of
// the shorter when one is a prefix of the other.
func diffAt(a, b []byte) int {
	n := min(len(a), len(b))
	for i := range n {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// check returns every way the history breaks the version semantics.
func (h *history) check() (violations []string) {
	violations = append(violations, h.stuck...)
	bad := func(format string, args ...any) { violations = append(violations, fmt.Sprintf(format, args...)) }
	byBlob := make(map[wire.BlobID][]*histOp)
	for i := range h.ops {
		op := &h.ops[i]
		byBlob[op.blob] = append(byBlob[op.blob], op)
	}
	for blob, contents := range h.settled {
		ops := byBlob[blob]
		acked := make(map[wire.Version]*histOp)
		var failed, recents []*histOp
		for _, op := range ops {
			switch {
			case op.kind == "recent" && op.err == nil:
				recents = append(recents, op)
			case op.kind != "write" && op.kind != "append":
			case op.err != nil:
				failed = append(failed, op)
			case acked[op.v] != nil:
				bad("blob %v: %s and %s both acknowledged as version %d", blob, acked[op.v], op, op.v)
			default:
				acked[op.v] = op
			}
		}
		for _, a := range acked {
			for _, b := range acked {
				if a.ret < b.inv && a.v > b.v {
					bad("blob %v: %s returned version %d before %s was invoked, which got %d", blob, a, a.v, b, b.v)
				}
			}
		}
		for _, a := range recents {
			for _, b := range recents {
				if a.ret < b.inv && b.v < a.v {
					bad("blob %v: %s saw version %d, and the later %s went back to %d", blob, a, a.v, b, b.v)
				}
			}
		}
		h.progress(blob, ops, bad)

		// The reference, version by version. A readable version no
		// acknowledged write holds is a failed write that took effect:
		// the one whose payload explains its bytes. A branch starts from
		// its parent's bytes at the branch point, and no parent write
		// after it explains any of its versions.
		base, first := contents[0], wire.Version(1)
		if bp, ok := h.branches[blob]; ok {
			base, first = contents[bp.at], bp.at+1
			if want := h.settled[bp.parent][bp.at]; !bytes.Equal(base, want) {
				bad("blob %v: its branch point, version %d of blob %v, reads %d bytes that differ from the parent's %d at byte %d",
					blob, bp.at, bp.parent, len(base), len(want), diffAt(base, want))
			}
		}
		for v := first; v <= h.recent[blob]; v++ {
			got, readable := contents[v]
			if !readable {
				continue
			}
			op := acked[v]
			want, ok := []byte(nil), false
			if op != nil {
				want, ok = apply(base, op, len(got))
			} else {
				for i, f := range failed {
					if want, ok = apply(base, f, len(got)); ok && bytes.Equal(want, got) {
						op, failed = f, slices.Delete(failed, i, i+1)
						break
					}
				}
			}
			switch {
			case op == nil:
				bad("blob %v: version %d is readable, but no write explains its %d bytes", blob, v, len(got))
			case !ok || !bytes.Equal(want, got):
				bad("blob %v: version %d of %s differs from the reference at byte %d: it reads %d bytes, the reference has %d",
					blob, v, op, diffAt(got, want), len(got), len(want))
			}
			base = got
		}

		for _, op := range ops {
			if op.err != nil {
				continue
			}
			got, readable := contents[op.v]
			switch op.kind {
			case "recent", "size":
				if !readable || uint64(len(got)) != op.size {
					bad("blob %v: %s answered version %d of size %d; settled, it is readable %v with %d bytes", blob, op, op.v, op.size, readable, len(got))
				}
			case "read":
				end := op.off + uint64(len(op.data))
				if !readable || end > uint64(len(got)) {
					bad("blob %v: %s of version %d [%d, +%d) succeeded; settled, the version is readable %v with %d bytes", blob, op, op.v, op.off, len(op.data), readable, len(got))
				} else if i := diffAt(op.data, got[op.off:end]); i < len(op.data) {
					bad("blob %v: %s of version %d [%d, +%d) differs from the reference at byte %d", blob, op, op.v, op.off, len(op.data), op.off+uint64(i))
				}
			}
		}
	}
	return violations
}

// progress holds the dead-writer sweeper to what the clients saw. The
// sweeper aborts an update only after histDeadWriter of silence since the
// writer's last contact: its ASSIGN, or the manager's start when the
// manager folded the update in from its log. The ASSIGN leaves after the
// call is invoked, so a write that learns its version was aborted less
// than histDeadWriter after both its invocation and the latest start owes
// the abort to someone else. An abort withdraws every in-flight version
// above it too, so it is explained by
//   - a failed write on the blob that aborted its own version while this
//     one's existed (an abort lands within its writer's call, or a fault's
//     delay after), or
//   - an update the sweeper could have swept before this write returned:
//     a failed write (this one included) or an abandoned ASSIGN, silent
//     histDeadWriter since it was invoked and since the start that was
//     latest when this write was invoked.
//
// With neither, the sweeper struck early.
func (h *history) progress(blob wire.BlobID, ops []*histOp, bad func(string, ...any)) {
	isUpdate := func(op *histOp) bool { return op.kind == "write" || op.kind == "append" }
	startAt := func(t time.Duration) time.Duration { // the latest start at or before t
		s := h.vmStarts[0]
		for _, v := range h.vmStarts {
			if v <= t {
				s = v
			}
		}
		return s
	}
	for _, w := range ops {
		if !isUpdate(w) || wire.CodeOf(w.err) != wire.CodeAborted {
			continue
		}
		contact := max(w.inv, startAt(w.ret))
		if w.ret-contact >= histDeadWriter {
			continue
		}
		since := startAt(w.inv)
		explained := slices.ContainsFunc(ops, func(f *histOp) bool {
			switch {
			case f.inv > w.ret || (f.kind != "abandon" && (!isUpdate(f) || f.err == nil)):
				return false
			case max(f.inv, since)+histDeadWriter <= w.ret:
				return true // the sweeper could have swept f
			}
			return f != w && f.kind != "abandon" && wire.CodeOf(f.err) != wire.CodeAborted && f.ret+histOutage >= w.inv
		})
		if !explained {
			bad("blob %v: %s %v after its writer's last contact with the version manager, and no failed write or abandoned update explains it: the sweeper aborted an update whose writer had been silent for less than %v",
				blob, w, w.ret-contact, histDeadWriter)
		}
	}
}
