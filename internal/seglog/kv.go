package seglog

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"sync"
	"sync/atomic"

	"blobseer/internal/obs"
	"blobseer/internal/wire"
)

// KV is the one keyed store behind the provider page store
// (internal/pagestore.Disk) and the metadata nodes' pair log
// (internal/dht), on disk or in memory: a segmented, CRC-framed log of
// put and tombstone records with a striped index, group-committed
// appends, an index snapshot for bounded-reopen recovery
// (kv_recover.go) and a background compactor that rewrites mostly-dead
// segments (kv_maintain.go). Values are immutable: a second Put of a
// key is a no-op, and keys are never reused after Delete.
//
// How a keyed store is laid out on, recovered from, snapshotted over
// and compacted in a segmented log is decided here and nowhere else.
// An instantiation supplies only its KVLayout: the magics that brand
// its files, its key size, and its flush schedule.
//
// Safety rule for space reclamation: the store never invents garbage. A
// value's bytes are only ever dropped by compaction after the key was
// explicitly Deleted, and Delete's contract is that the caller (a
// garbage collector walking version metadata) has proven the key
// unreachable from every retained version. Everything still indexed
// survives any crash/compaction interleaving byte-identical — the
// invariant the crash-injection table asserts at every fault point.
type KV struct {
	fs     fileSystem
	base   string
	ly     *KVLayout
	opts   KVOptions
	closed atomic.Bool
	// errClosed is ErrClosed under the layout's name.
	errClosed error

	// stripes spread index lookups over independent RW locks so reads
	// never serialize behind writes to unrelated keys. The index is
	// written only by applies (under wmu) and by compaction's retargets
	// (under the victim's mu); nothing else ever reads all of it — an
	// index snapshot is folded off the disk (kv_maintain.go). The whole
	// lock order, in the form the lockorder analyzer (cmd/blobseer-vet)
	// enforces:
	//
	//blobseer:lockorder maintMu < wmu < segMu < kvSegment.mu < kvStripe.mu
	stripes [kvStripes]kvStripe

	// segMu guards the segment table. Segments are never removed from it
	// (compaction rewrites in place) and indices are contiguous from 1,
	// so segs[idx-1] read under RLock stays valid forever.
	segMu sync.RWMutex
	segs  []*kvSegment

	// wmu guards the writer state: the active-segment pointer, the
	// group-commit queue and shutdown. The write+fsync itself runs
	// outside wmu by the unique leader (see committer, which borrows it);
	// every apply, and so every change of a segment's liveBytes, runs
	// under it.
	wmu    sync.Mutex
	active *kvSegment
	comm   committer[*kvAppend]
	// appender holds the batch buffer, the append and fsync counts and
	// the auto-snapshot countdown (uncovered).
	appender

	nextGen    atomic.Uint64 // last generation handed out
	keys       atomic.Uint64 // live keys
	valueBytes atomic.Uint64 // live value bytes

	// Maintenance (snapshot + compaction) machinery, see kv_maintain.go.
	maintMu sync.Mutex
	// ioBuf is the one window segment files are read through when they
	// are scanned or rewritten: by recovery before the store is shared,
	// by maintenance under maintMu afterwards. Grow-only, and never
	// larger than kvBatchRetain (see resize).
	ioBuf       []byte
	snapRuns    atomic.Uint64
	compactRuns atomic.Uint64
	// Background passes that failed: nothing else reports them.
	snapFailures    atomic.Uint64
	compactFailures atomic.Uint64
	maint           *maintainer
	recStats        recoveryStats
}

// KVLayout is everything one instantiation of the KV decides.
type KVLayout struct {
	// Format brands the files, so a metadata log opened as a page store
	// fails loudly instead of replaying foreign records.
	Format
	// KeyLen is the size in bytes of every key: each layout fixes it, Put
	// refuses any other, and records and snapshot entries carry the key
	// raw.
	KeyLen int
	// SealSync fsyncs a segment and its directory entry when it is
	// sealed, and every segment at Close, even with Sync off — so only
	// the highest segment can ever carry a torn tail and a clean shutdown
	// loses nothing. Without it and without Sync, a power loss can tear a
	// sealed segment, which then refuses to reopen. A constant of each
	// instantiation, not a tunable.
	SealSync bool
}

// KVOptions tunes a KV. The zero value is unsynced appends, 64 MB
// segments, no automatic snapshots or compaction. Every KV
// group-commits: concurrent Puts/Deletes coalesce into one write (+ at
// most one fsync), written by the first appender to find no active
// leader.
type KVOptions struct {
	// Sync forces records to disk before Put or Delete returns. Slower,
	// but a crash loses at most in-flight records instead of the OS
	// write-back window; concurrent writers share fsyncs.
	Sync bool
	// Deprecated: ignored, every KV group-commits; kept only until
	// internal/blast stops naming it.
	GroupCommit bool
	// SegmentBytes rolls the log into a fresh segment file once the
	// active one exceeds this many bytes (default 64 MB). Compaction
	// rewrites whole sealed segments, so smaller segments reclaim at a
	// finer grain for more files.
	SegmentBytes int64
	// SnapshotEvery, when positive, writes an index snapshot
	// automatically after that many appended records, bounding reopen
	// replay by the interval. Zero disables automatic snapshots;
	// Snapshot remains available on demand either way. Compact covers
	// its rewrites with a fresh snapshot when this is positive or the
	// store has a snapshot file; it never writes the first one of a
	// store with neither, which reopens by rescanning every segment.
	SnapshotEvery int
	// CompactRatio, when positive, makes the background compactor
	// rewrite any sealed segment whose live-byte ratio falls below this
	// threshold (0 < ratio < 1), dropping records of Deleted keys; it
	// never seals the active segment. Zero disables automatic
	// compaction on disk (in memory, where it is how RAM comes back, zero
	// means 0.5); Compact remains available on demand.
	CompactRatio float64
	// Fault, when set, is called at every maintenance fault point (the
	// crashPoints of kv_maintain.go); an error aborts the pass there
	// exactly as a process death at that point would. A test seam: no
	// deployment sets it.
	Fault func(point string) error
}

// recoveryStats describes what one OpenKV did: how much of the index
// came from the snapshot and how much had to be replayed by scanning
// segments. With automatic snapshots, RecordsReplayed stays bounded by
// SnapshotEvery no matter how many keys the store holds.
type recoveryStats struct {
	SnapshotLoaded    bool // a valid index snapshot seeded the index
	SnapshotEntries   int  // keys restored from the snapshot
	SegmentsOnDisk    int  // segment files found or created at open
	SegmentsRescanned int  // segments scanned record-by-record
	StaleRescanned    int  // of those, rewritten after the snapshot (compaction crash)
	RecordsReplayed   int  // records applied by rescans
}

var (
	// ErrNotFound is returned by Get for a key that is not stored.
	ErrNotFound = errors.New("key not found")
	// ErrBadRange is returned by Get when the byte range does not fit
	// inside the value.
	ErrBadRange = errors.New("byte range outside value")
	// ErrClosed is returned by operations racing or following Close.
	ErrClosed = errors.New("store closed")
)

const (
	kvStripes = 64

	// defaultSegmentBytes is the roll threshold when the options leave
	// SegmentBytes zero.
	defaultSegmentBytes = 64 << 20

	// kvBatchRetain is the largest batch buffer a store keeps between
	// commits, so one huge batch cannot pin its size forever.
	kvBatchRetain = 4 << 20
)

type kvStripe struct {
	mu sync.RWMutex
	m  map[string]kvEntry
}

// kvEntry locates one live value: bytes [off, off+vlen) of segment seg.
// Every indexed key carries one, so the fields are ordered to pack into
// 16 bytes.
type kvEntry struct {
	off  int64
	seg  uint32
	vlen uint32
}

// kvSegment is one log file and its accounting. The file handle is
// swapped by compaction under mu; readers hold mu.RLock across their
// pread so a swap never closes a file out from under them.
type kvSegment struct {
	idx uint32

	mu  sync.RWMutex
	f   file
	gen uint64
	// size is the file length. For the active segment it is advanced
	// only by the unique committer; for sealed segments it changes only
	// under mu (compaction).
	size atomic.Int64

	// liveBytes is the framed bytes of put records the index still points
	// at; tombBytes the framed bytes of tombstone records. size - header -
	// liveBytes - tombBytes estimates what a rewrite would reclaim, and a
	// freshly rewritten segment estimates exactly zero. Both survive
	// reopen: index snapshots persist them per segment (indexsnap.go).
	// Only an apply changes liveBytes, by the size of the record it indexes
	// or drops, so under wmu it is exact — what checkLocated holds a
	// rewrite's first pass against.
	liveBytes atomic.Int64
	tombBytes atomic.Int64

	// hygiene flags the segment for a tombstone-hygiene rewrite: an
	// earlier segment's rewrite dropped a dead put, so tombstones here
	// may have lost their last reason to exist (hygiene.go). pickVictim
	// selects flagged segments even when their reclaim estimate is zero;
	// the rewrite clears the flag.
	hygiene atomic.Bool
}

// kvAppend is one queued record and its appender's parking spot. value
// aliases the appender's own slice: the committer frames it straight
// into the batch buffer, and it is never read after the appender's
// Append returns — the appender is parked until its batch resolves, and
// shutdown only fails records no leader has taken.
type kvAppend struct {
	kind byte
	// changed is set by applyBatch when the record changed the index: a
	// put inserted its key, a tombstone dropped an entry. It stays false
	// for a record that lost to one applied ahead of it, and for every
	// record of a failed commit. It sits in kind's padding.
	changed bool
	key     string
	value   []byte

	// Filled by the committer: where the record (and a put's value)
	// landed.
	seg uint32
	off int64

	cell cell
}

func (a *kvAppend) slot() *cell { return &a.cell }

// OpenKV opens (creating if needed) the store rooted at path and
// rebuilds the index: it loads the newest valid index snapshot,
// verifies each covered segment's generation, and rescans only the tail
// (plus any segment a crashed compaction rewrote). A torn record at the
// tail of the highest segment is truncated away; a torn or corrupt
// snapshot degrades to a full rescan.
//
// An empty path opens a fresh store in memory, in a file system of its
// own (memfs.go). Nothing reopens it, so SnapshotEvery is ignored; what
// Delete leaves behind returns to RAM at compaction.
func OpenKV(path string, ly *KVLayout, opts KVOptions) (*KV, error) {
	var fsys fileSystem = osFS{}
	if path == "" {
		fsys, path, opts.SnapshotEvery = newMemFS(), "mem", 0
		if opts.CompactRatio <= 0 {
			opts.CompactRatio = 0.5 // blobseerd's -compact-ratio default
		}
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = defaultSegmentBytes
	}
	if err := fsys.MkdirAll(filepath.Dir(path)); err != nil {
		return nil, fmt.Errorf("%s: create dir: %w", ly.Name, err)
	}
	s := &KV{fs: fsys, base: path, ly: ly, opts: opts, errClosed: fmt.Errorf("%s: %w", ly.Name, ErrClosed)}
	for i := range s.stripes {
		s.stripes[i].m = make(map[string]kvEntry)
	}
	s.comm = committer[*kvAppend]{
		Mu:        &s.wmu,
		Closed:    s.closed.Load,
		ErrClosed: s.errClosed,
		Commit:    s.commit,
		Apply:     s.applyBatch,
		MaybeRoll: func() {
			if s.active.size.Load() >= s.opts.SegmentBytes {
				s.rollLocked() // best effort: a failed roll leaves the oversized segment active
			}
		},
	}
	if err := s.recover(); err != nil {
		s.closeFiles()
		return nil, err
	}
	if opts.SnapshotEvery > 0 || opts.CompactRatio > 0 {
		s.maint = startMaintainer(s.maintainPass, s.due(opts.SnapshotEvery))
	}
	return s, nil
}

// keyBytes is a key as the read path takes it: the string the index
// holds, or the bytes a caller decoded off the wire (LenBytes,
// GetAppendBytes), which a lookup must not have to copy into a string.
type keyBytes interface{ string | []byte }

func stripeOf[K keyBytes](s *KV, key K) *kvStripe {
	h := uint32(2166136261) // FNV-1a
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return &s.stripes[h%kvStripes]
}

func (s *KV) stripe(key string) *kvStripe { return stripeOf(s, key) }

func lookup[K keyBytes](s *KV, key K) (kvEntry, bool) {
	st := stripeOf(s, key)
	st.mu.RLock()
	e, ok := st.m[string(key)] // a conversion that only indexes a map allocates nothing
	st.mu.RUnlock()
	return e, ok
}

func (s *KV) lookup(key string) (kvEntry, bool) { return lookup(s, key) }

func (s *KV) segment(idx uint32) *kvSegment {
	s.segMu.RLock()
	seg := s.segs[idx-1]
	s.segMu.RUnlock()
	return seg
}

func (s *KV) segmentPath(idx uint32) string { return SegmentPath(s.base, uint64(idx)) }

// dropEntry removes key from the index, adjusting the counters, and
// reports whether there was an entry to remove: the tombstone apply.
func (s *KV) dropEntry(key string) bool {
	st := s.stripe(key)
	st.mu.Lock()
	e, ok := st.m[key]
	if ok {
		delete(st.m, key)
	}
	st.mu.Unlock()
	if !ok {
		return false
	}
	s.segment(e.seg).liveBytes.Add(-s.ly.framedSize(e.vlen))
	s.keys.Add(^uint64(0))
	s.valueBytes.Add(^(uint64(e.vlen) - 1))
	return true
}

// createSegment creates and opens a fresh segment file with a durable
// header.
func (s *KV) createSegment(idx uint32, gen uint64) (*kvSegment, error) {
	f, err := s.ly.Format.createSegment(s.fs, s.segmentPath(idx), s.opts.Sync)
	if err != nil {
		return nil, err
	}
	if err := s.ly.writeHeader(f, gen); err != nil {
		f.Close()
		return nil, err
	}
	if s.opts.Sync {
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, fmt.Errorf("%s: sync segment header: %w", s.ly.Name, err)
		}
	}
	seg := &kvSegment{idx: idx, f: f, gen: gen}
	seg.size.Store(headerSize)
	return seg, nil
}

// rollLocked seals the active segment and opens the next one. Called
// with wmu held, and only when no commit is in flight: by the committer
// itself after its batch (MaybeRoll), or through Committer.SealLocked.
// The sealed segment's file stays open — it still serves reads and
// compaction scans. It re-checks closed: Close may have finished while
// a commit ran outside wmu, and a roll now would create a stray segment
// after closeFiles already swept the table.
func (s *KV) rollLocked() error {
	if s.closed.Load() {
		return s.errClosed
	}
	if s.ly.SealSync {
		// Recovery tolerates a torn tail only in the highest segment, so a
		// sealed segment's contents — and its directory entry, which must
		// not vanish while a successor survives — have to outlive any
		// crash from here on. One fsync per SegmentBytes.
		if err := s.active.f.Sync(); err != nil {
			return fmt.Errorf("%s: seal segment: %w", s.ly.Name, err)
		}
		if !s.opts.Sync { // with Sync on, createSegment already dir-synced it
			if err := s.fs.SyncDir(filepath.Dir(s.base)); err != nil {
				return fmt.Errorf("%s: sync dir before roll: %w", s.ly.Name, err)
			}
		}
	}
	gen := s.nextGen.Add(1)
	seg, err := s.createSegment(s.active.idx+1, gen)
	if err != nil {
		// Give the reservation back unless a rewrite reserved past it
		// meanwhile (generations must never repeat for one segment).
		s.nextGen.CompareAndSwap(gen, gen-1)
		return err
	}
	s.segMu.Lock()
	s.segs = append(s.segs, seg)
	s.segMu.Unlock()
	s.active = seg
	return nil
}

func (s *KV) newAppend(kind byte, key string, value []byte) *kvAppend {
	return &kvAppend{kind: kind, key: key, value: value}
}

// framed is the record's size on disk.
func (s *KV) framed(a *kvAppend) int64 {
	return s.ly.framedSize(uint32(len(a.value)))
}

// Put durably appends a put record (sharing write+fsync with concurrent
// appenders) and then indexes the value. Values are immutable: a Put of
// a stored key is a no-op. value is read until the call returns, never
// after: the caller may reuse it immediately.
func (s *KV) Put(key string, value []byte) error {
	if s.closed.Load() {
		return s.errClosed
	}
	if len(key) != s.ly.KeyLen {
		return fmt.Errorf("%s: key of %d bytes, layout fixes %d", s.ly.Name, len(key), s.ly.KeyLen)
	}
	if _, dup := s.lookup(key); dup {
		return nil
	}
	return s.comm.Append(s.newAppend(kvPut, key, value))
}

// Delete durably appends a tombstone and drops the key from the index,
// making its bytes reclaimable by compaction. Deleting an unknown key
// is a no-op.
func (s *KV) Delete(key string) error {
	if s.closed.Load() {
		return s.errClosed
	}
	if _, ok := s.lookup(key); !ok {
		return nil
	}
	return s.comm.Append(s.newAppend(kvTomb, key, nil))
}

// PutBatch is Put for the pairs of one request: every record is queued
// before any is awaited, so together they are one write and at most one
// fsync (more only when a batch already forming takes the first of
// them). values[i] is framed straight from the caller's slice when its
// batch commits: it is read until the call returns, never after. lost
// lists, ascending, each i whose record did not enter the index because
// a pair of keys[i] was there first — stored when the call looked, or
// applied ahead of it, be that by a concurrent request or by a smaller
// i of this one (such a record is logged all the same; compaction drops
// it). Whether values[i] is what the log holds for a lost key is the
// caller's to check. A failed commit indexes none of its batch, and err
// is the first failure.
func (s *KV) PutBatch(keys, values [][]byte) (lost []int, err error) {
	recs := make([]*kvAppend, len(keys))
	for i, key := range keys {
		if len(key) != s.ly.KeyLen {
			return nil, fmt.Errorf("%s: key of %d bytes, layout fixes %d", s.ly.Name, len(key), s.ly.KeyLen)
		}
		if _, dup := lookup(s, key); !dup {
			recs[i] = s.newAppend(kvPut, string(key), values[i])
		}
	}
	if err := s.commitAll(recs); err != nil {
		return nil, err
	}
	for i, a := range recs {
		if a == nil || !a.changed {
			lost = append(lost, i)
		}
	}
	return lost, nil
}

// DeleteBatch is PutBatch's twin for tombstones: a sweep deleting
// thousands of keys shares fsyncs instead of paying one per key. dropped
// counts the keys whose entry a record of this call removed from the
// index, so a key named twice, here or by a concurrent sweep, counts
// once — for whichever tombstone applies first; the others are logged
// and drop nothing. Unknown keys are no-ops. On error dropped counts
// what the batches that did commit removed.
func (s *KV) DeleteBatch(keys [][]byte) (dropped uint64, err error) {
	recs := make([]*kvAppend, 0, len(keys))
	for _, key := range keys {
		if _, ok := lookup(s, key); ok {
			recs = append(recs, s.newAppend(kvTomb, string(key), nil))
		}
	}
	err = s.commitAll(recs)
	for _, a := range recs {
		if a.changed {
			dropped++
		}
	}
	return dropped, err
}

// commitAll queues recs (nil entries are skipped) in order and then
// parks until every one it queued is resolved; it returns the first
// failure. Every queued record is awaited whatever the others return:
// the first may have made this goroutine the batch leader, and an
// unawaited leader stalls the queue.
func (s *KV) commitAll(recs []*kvAppend) error {
	var first error
	queued := 0 // recs[:queued] are queued, or nil
	for _, a := range recs {
		if a != nil {
			if first = s.comm.Enqueue(a); first != nil {
				break
			}
		}
		queued++
	}
	for _, a := range recs[:queued] {
		if a == nil {
			continue
		}
		if err := s.comm.Await(a); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// GateNextCommit parks the next batch inside its commit until release
// (see committer.gateNext): a test hook, for the tests that pin what
// stays available while a commit is in flight and what a failed one
// leaves behind. Install it before any concurrent traffic.
func (s *KV) GateNextCommit() (entered <-chan struct{}, release chan<- error) {
	return s.comm.gateNext()
}

// commit frames the batch — header, key, value and CRC of each record,
// straight from the appenders' slices — contiguously into the store's
// one batch buffer, appends it to the active segment with a single
// write and at most one fsync, and stamps each record with where it
// landed. Only one committer runs at a time (the leader), so the batch
// buffer and the active-segment fields need no extra synchronization:
// the segment cannot roll while a commit is in flight (rolls run under
// wmu at a batch tail, or with no leader at all). On error nothing is
// applied.
func (s *KV) commit(batch []*kvAppend) error {
	seg := s.active
	base := seg.size.Load()
	var n int64
	for _, a := range batch {
		n += s.framed(a)
	}
	out := s.frameBuf(len(batch), int(n))
	for _, a := range batch {
		out = s.ly.appendRecord(out, a.kind, a.key, a.value)
		a.seg = seg.idx
		a.off = base + int64(len(out)) - int64(len(a.value))
	}
	if err := s.writeBatch(&s.ly.Format, seg.f, base, out, s.opts.Sync); err != nil {
		return err
	}
	seg.size.Store(base + int64(len(out)))
	return nil
}

// applyBatch indexes a durable batch: puts insert (the first of a
// duplicate pair wins, as in recovery), tombstones drop, and each record
// learns whether it changed the index. Called with wmu held by the
// committer.
func (s *KV) applyBatch(batch []*kvAppend) {
	var nudge bool
	for _, a := range batch {
		// Resolve the segment before taking the stripe lock: segMu orders
		// before stripe locks.
		seg := s.segment(a.seg)
		switch a.kind {
		case kvPut:
			st := s.stripe(a.key)
			st.mu.Lock()
			if _, dup := st.m[a.key]; !dup {
				st.m[a.key] = kvEntry{seg: a.seg, off: a.off, vlen: uint32(len(a.value))}
				seg.liveBytes.Add(s.framed(a))
				s.keys.Add(1)
				s.valueBytes.Add(uint64(len(a.value)))
				a.changed = true
			}
			st.mu.Unlock()
		case kvTomb:
			seg.tombBytes.Add(s.framed(a))
			a.changed = s.dropEntry(a.key)
			if s.opts.CompactRatio > 0 {
				nudge = true
			}
		}
	}
	if nudge || s.due(s.opts.SnapshotEvery) {
		s.maint.nudge()
	}
}

// Get returns length bytes starting at off within key's value, in
// memory of their own; a length of wire.WholePage returns everything
// from off to the end.
func (s *KV) Get(key string, off, length uint32) ([]byte, error) {
	return s.GetAppend(nil, key, off, length)
}

// GetAppend is Get onto memory the caller supplies: it reads the range
// into dst's spare capacity, growing dst — once, to exactly what is
// needed — only when that is too small, and returns the extended slice.
// On error it returns nil and has written nothing into dst's length;
// the spare capacity is the caller's to reuse either way. Len tells a
// caller how much room a whole value needs.
func (s *KV) GetAppend(dst []byte, key string, off, length uint32) ([]byte, error) {
	return getAppend(s, dst, key, off, length)
}

// GetAppendBytes is GetAppend for a key held as bytes — one decoded off
// the wire, say — without the string copy a conversion at the call site
// would cost.
func (s *KV) GetAppendBytes(dst, key []byte, off, length uint32) ([]byte, error) {
	return getAppend(s, dst, key, off, length)
}

func getAppend[K keyBytes](s *KV, dst []byte, key K, off, length uint32) ([]byte, error) {
	if s.closed.Load() {
		return nil, s.errClosed
	}
	e, ok := lookup(s, key)
	if !ok {
		return nil, ErrNotFound
	}
	seg := s.segment(e.seg)
	seg.mu.RLock()
	defer seg.mu.RUnlock()
	// Re-fetch under the segment lock: a compaction may have moved the
	// value between the lookup and here, and it swaps the file handle and
	// rewrites the entries as one unit under seg.mu. Records never move
	// between segments, so the entry still points into seg.
	if e, ok = lookup(s, key); !ok {
		return nil, ErrNotFound
	}
	if off > e.vlen {
		return nil, fmt.Errorf("%w: offset %d beyond %d bytes", ErrBadRange, off, e.vlen)
	}
	n := e.vlen - off
	if length != wire.WholePage {
		if uint64(off)+uint64(length) > uint64(e.vlen) {
			return nil, fmt.Errorf("%w: [%d,+%d) beyond %d bytes", ErrBadRange, off, length, e.vlen)
		}
		n = length
	}
	start, end := len(dst), len(dst)+int(n)
	if end > cap(dst) {
		dst = append(make([]byte, 0, end), dst...)
	}
	dst = dst[:end]
	if n > 0 {
		if _, err := seg.f.ReadAt(dst[start:], e.off+int64(off)); err != nil {
			if errors.Is(err, fs.ErrClosed) {
				return nil, s.errClosed // lost the race with Close
			}
			return nil, fmt.Errorf("%s: read value: %w", s.ly.Name, err)
		}
	}
	return dst, nil
}

// Len reports the size of key's value, and whether key is stored.
func (s *KV) Len(key string) (uint32, bool) {
	e, ok := s.lookup(key)
	return e.vlen, ok
}

// LenBytes is Len for a key held as bytes (see GetAppendBytes).
func (s *KV) LenBytes(key []byte) (uint32, bool) {
	e, ok := lookup(s, key)
	return e.vlen, ok
}

// Metrics writes the store's series: what it holds, what its log costs,
// how far its maintenance is behind, and what this open recovered.
func (s *KV) Metrics(sink *obs.Sink) {
	var logBytes, reclaimable int64
	s.segMu.RLock()
	for _, seg := range s.segs {
		logBytes += seg.size.Load()
		reclaimable += seg.size.Load() - headerSize - seg.liveBytes.Load() - seg.tombBytes.Load()
	}
	s.segMu.RUnlock()
	sink.Gauge("store_keys", "live keys", float64(s.keys.Load()))
	sink.Gauge("store_value_bytes", "summed size of the live values", float64(s.valueBytes.Load()))
	sink.Counter("store_appends_total", "records appended since open", float64(s.appends.Load()))
	sink.Counter("store_syncs_total", "commit fsyncs since open (fewer than appends: group commit)", float64(s.syncs.Load()))
	sink.Gauge("store_log_bytes", "summed size of the segment files", float64(logBytes))
	sink.Gauge("store_reclaimable_bytes", "segment bytes neither a live record nor a tombstone: what compaction is behind by", float64(reclaimable))
	sink.Counter("store_compactions_total", "segment rewrites since open", float64(s.compactRuns.Load()))
	sink.Gauge("store_unsnapshotted_records", "records logged past the published index snapshot: what a reopen replays", float64(s.uncovered()))
	sink.Counter("store_snapshots_total", "index snapshots published since open", float64(s.snapRuns.Load()))
	const failed = "background maintenance passes that failed, by pass"
	sink.Counter("store_maintenance_failures_total", failed, float64(s.snapFailures.Load()), "pass", "snapshot")
	sink.Counter("store_maintenance_failures_total", failed, float64(s.compactFailures.Load()), "pass", "compact")
	r, loaded := s.recStats, 0.0
	if r.SnapshotLoaded {
		loaded = 1
	}
	sink.Gauge("store_recovery_snapshot_loaded", "1 if an index snapshot seeded this open", loaded)
	sink.Gauge("store_recovery_snapshot_entries", "keys this open restored from the snapshot", float64(r.SnapshotEntries))
	sink.Gauge("store_recovery_segments", "segment files this open found or created", float64(r.SegmentsOnDisk))
	sink.Gauge("store_recovery_segments_rescanned", "segments this open scanned record by record", float64(r.SegmentsRescanned))
	sink.Gauge("store_recovery_stale_rescanned", "rescanned segments a compaction rewrote after the snapshot", float64(r.StaleRescanned))
	sink.Gauge("store_recovery_records_replayed", "records this open applied by rescanning", float64(r.RecordsReplayed))
}

// closeFiles closes every segment file, fsyncing each first (and the
// directory after) under SealSync so a clean shutdown loses nothing.
// The handles deliberately stay non-nil: a group-commit leader
// mid-write or a reader that slipped past the closed check simply gets
// fs.ErrClosed from the file instead of a nil dereference.
func (s *KV) closeFiles() error {
	s.segMu.Lock()
	defer s.segMu.Unlock()
	var first error
	keep := func(err error) {
		if err != nil && first == nil && !errors.Is(err, fs.ErrClosed) {
			first = err
		}
	}
	for _, seg := range s.segs {
		seg.mu.Lock()
		if s.ly.SealSync {
			keep(seg.f.Sync())
		}
		keep(seg.f.Close())
		seg.mu.Unlock()
	}
	if s.ly.SealSync {
		keep(s.fs.SyncDir(filepath.Dir(s.base)))
	}
	return first
}

// Close is idempotent: queued appenders fail with a closed error,
// in-flight maintenance finishes first (its output is valid and worth
// keeping), and every segment file is closed.
func (s *KV) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	s.wmu.Lock()
	s.comm.FailQueuedLocked(s.errClosed)
	s.wmu.Unlock()
	s.maint.stop()
	s.maintMu.Lock()
	defer s.maintMu.Unlock()
	return s.closeFiles()
}
