package seglog

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"

	"blobseer/internal/bufpool"
	"blobseer/internal/obs"
	"blobseer/internal/vclock"
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
// The log is the key store. A record is kind | key | value, so the
// KeyLen bytes right before a value are its key, and the index keeps no
// key at all: it maps a 64-bit hash of each key to where its record is
// (FAWN-DS's DRAM index over a log, where Bitcask's keydir keeps every
// key). A hit is confirmed by reading the key off the record, so every
// answer stays exact under any hash; a key whose hash another key
// already holds is indexed by the key itself, in its stripe's spill.
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
	// index snapshot is folded off the disk (kv_maintain.go). A key check
	// reads a record under its segment's read lock and takes the stripe
	// lock only around the map lookups beside it. The whole lock order,
	// in the form the lockorder analyzer (cmd/blobseer-vet) enforces:
	//
	//blobseer:lockorder maintMu < wmu < segMu < kvSegment.mu < kvStripe.mu
	stripes [kvStripes]kvStripe
	// keyBufs recycles the KeyLen-byte buffers a key check reads a
	// record's key into when the caller's memory has no room for it: a
	// channel rather than a sync.Pool, so that a check allocates nothing
	// under the race detector either.
	keyBufs chan []byte

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

	// kvKeyBufs is how many key-check buffers a store keeps for reuse:
	// more than the checks a few cores run at once. Past it a check
	// allocates its KeyLen bytes, and gives them to the collector.
	kvKeyBufs = 16
)

// kvStripe is one lock's share of the index. m maps a key's hash to the
// entry of the one key that holds it; the record there carries that
// key, so a hit is confirmed by reading it (recordHasKey). spill maps,
// by the key itself, each key whose hash another indexed key held when
// it was put: rare, as the hash is 64 bits wide. A key is in one of the
// two, never both, and spill is looked at first, so a key found there
// needs no check.
type kvStripe struct {
	mu    sync.RWMutex
	m     map[uint64]kvEntry
	spill map[string]kvEntry
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

// kvAppend is one queued record and its appender's parking spot. key
// and value alias the appender's own slices: the committer frames them
// straight into the batch buffer, and they are never read after the
// appender's Await returns — the appender is parked until its batch
// resolves, and shutdown only fails records no leader has taken. The
// record itself is not read after that either, which is what lets a
// batch's records live in a recycled slab (getRecords).
type kvAppend struct {
	kind byte
	// changed is set by applyBatch when the record changed the index: a
	// put inserted its key, a tombstone dropped an entry. It stays false
	// for a record that lost to one applied ahead of it, and for every
	// record of a failed commit. It sits in kind's padding.
	changed bool
	// heldByKey is commit's answer for apply (classify): the entry that
	// held the record's hash before its batch is the record's own key's.
	// It sits in kind's padding too.
	heldByKey bool

	// Filled by the committer: where the record (and a put's value)
	// landed. seg shares kind's word.
	seg uint32
	off int64

	key   []byte
	value []byte

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
// Delete leaves behind returns to RAM at compaction. Maintenance passes
// run on sched, the owner's scheduler (nil: the real clock).
func OpenKV(sched vclock.Scheduler, path string, ly *KVLayout, opts KVOptions) (*KV, error) {
	var fsys fileSystem = osFS{}
	if path == "" {
		fsys, path, opts.SnapshotEvery = newMemFS(), "mem", 0
		if opts.CompactRatio <= 0 {
			opts.CompactRatio = 0.5 // blobseerd's -compact-ratio default
		}
	}
	return openKV(sched, fsys, path, ly, opts)
}

func openKV(sched vclock.Scheduler, fsys fileSystem, path string, ly *KVLayout, opts KVOptions) (*KV, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = defaultSegmentBytes
	}
	if err := fsys.MkdirAll(filepath.Dir(path)); err != nil {
		return nil, fmt.Errorf("%s: create dir: %w", ly.Name, err)
	}
	s := &KV{fs: fsys, base: path, ly: ly, opts: opts, errClosed: fmt.Errorf("%s: %w", ly.Name, ErrClosed),
		keyBufs: make(chan []byte, kvKeyBufs)}
	for i := range s.stripes {
		s.stripes[i].m = make(map[uint64]kvEntry)
		s.stripes[i].spill = make(map[string]kvEntry)
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
		s.maint = startMaintainer(sched, s.maintainPass, s.due(opts.SnapshotEvery))
	}
	return s, nil
}

// keyBytes is a key as the store takes it: a string, or the bytes a
// caller decoded off the wire (PutBatch, LenBytes, GetAppendBytes),
// which a lookup must not have to copy into a string.
type keyBytes interface{ string | []byte }

// hashMask narrows keyHash to its low bits: all of them, but for tests
// that make colliding keys common on purpose.
var hashMask = ^uint64(0)

// keyHash is FNV-1a 64 of key: what the index knows a key by.
func keyHash[K keyBytes](key K) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * 1099511628211
	}
	return h & hashMask
}

// stripeOf is the stripe of the keys of hash h.
func (s *KV) stripeOf(h uint64) *kvStripe { return &s.stripes[h%kvStripes] }

// candidate is the entry key has if it is stored: its spill entry,
// found by the key itself and so sure, else the entry holding h, key's
// hash, whose record may carry another key. A stored key's candidate is
// always its own entry; an absent key's may be another's.
func candidate[K keyBytes](st *kvStripe, h uint64, key K) (e kvEntry, sure, ok bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	if len(st.spill) > 0 {
		// A conversion that only indexes a map allocates nothing.
		if e, ok = st.spill[string(key)]; ok {
			return e, true, true
		}
	}
	e, ok = st.m[h]
	return e, false, ok
}

// lookup is key's candidate, unchecked: exact for a stored key, while
// for an absent one it may be another key's entry. Only a caller that
// compares locations may take it as an answer — an entry at exactly a
// record's offset belongs to that record's key — which is why
// compaction's location checks read no disk and take no segment lock.
func (s *KV) lookup(key string) (kvEntry, bool) {
	h := keyHash(key)
	e, _, ok := candidate(s.stripeOf(h), h, key)
	return e, ok
}

// find is key's entry, checked: the candidate, confirmed by reading the
// key off its record unless the key itself found it (a read of no
// bytes of the value).
func find[K keyBytes](s *KV, key K) (kvEntry, bool, error) {
	e, _, err := read(s, nil, key, 0, 0)
	if errors.Is(err, ErrNotFound) {
		return kvEntry{}, false, nil
	}
	return e, err == nil, err
}

// recordHasKey reports whether the record whose value starts at valOff
// in f carries key, reading the KeyLen bytes right before the value —
// into into when that is KeyLen long, else into a buffer of the
// store's. The caller holds the segment's read lock, or has not shared
// the store yet.
func recordHasKey[K keyBytes](s *KV, f file, valOff int64, key K, into []byte) (bool, error) {
	if len(into) != s.ly.KeyLen {
		into = s.keyBuf()
		defer s.putKeyBuf(into)
	}
	if _, err := f.ReadAt(into, valOff-int64(len(into))); err != nil {
		return false, s.readErr("read key", err)
	}
	return string(into) == string(key), nil // neither conversion allocates
}

func (s *KV) keyBuf() []byte {
	select {
	case b := <-s.keyBufs:
		return b
	default:
		return make([]byte, s.ly.KeyLen)
	}
}

func (s *KV) putKeyBuf(b []byte) {
	select {
	case s.keyBufs <- b:
	default:
	}
}

// readErr is a failed read of a segment file; losing the race with
// Close is the store's closed error.
func (s *KV) readErr(what string, err error) error {
	if errors.Is(err, fs.ErrClosed) {
		return s.errClosed
	}
	return fmt.Errorf("%s: %s: %w", s.ly.Name, what, err)
}

func (s *KV) segment(idx uint32) *kvSegment {
	s.segMu.RLock()
	seg := s.segs[idx-1]
	s.segMu.RUnlock()
	return seg
}

func (s *KV) segmentPath(idx uint32) string { return SegmentPath(s.base, uint64(idx)) }

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

// newAppend is a record of key, of which it keeps a copy, as the one
// record of a commitAll.
func (s *KV) newAppend(kind byte, key string, value []byte) []kvAppend {
	return []kvAppend{{kind: kind, key: []byte(key), value: value}}
}

// recordSlabs recycles the record slabs of PutBatch and DeleteBatch. A
// slab is all zeros while it is in the pool: clearRecords clears what a
// call used, so a record a call does not fill in has kind 0 and is no
// record at all, and no record starts out changed. Only commitAll's
// callers take slabs, and commitAll returns once every record it queued
// has been delivered, after which the committer reads none of them:
// the slab is the caller's again, on every path. It keeps no reserve:
// a slab is as large as the largest batch it served.
var recordSlabs = bufpool.NewPool(clearRecords, clearRecords).Reserve(0)

// getRecords is a zeroed slab of n records.
func getRecords(n int) *[]kvAppend {
	p := recordSlabs.Get()
	*p = slices.Grow(*p, n)[:n]
	return p
}

func clearRecords(p *[]kvAppend) {
	clear(*p)
	*p = (*p)[:0]
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
	if _, dup, err := find(s, key); err != nil || dup {
		return err
	}
	return s.commitAll(s.newAppend(kvPut, key, value))
}

// Delete durably appends a tombstone and drops the key from the index,
// making its bytes reclaimable by compaction. Deleting an unknown key
// is a no-op.
func (s *KV) Delete(key string) error {
	if s.closed.Load() {
		return s.errClosed
	}
	if _, ok, err := find(s, key); err != nil || !ok {
		return err
	}
	return s.commitAll(s.newAppend(kvTomb, key, nil))
}

// PutBatch is Put for the pairs of one request: every record is queued
// before any is awaited, so together they are one write and at most one
// fsync (more only when a batch already forming takes the first of
// them). keys[i] and values[i] are framed straight from the caller's
// slices when their batch commits: they are read until the call
// returns, never after. lost lists, ascending, each i whose record did
// not enter the index because a pair of keys[i] was there first —
// stored when the call looked, or applied ahead of it, be that by a
// concurrent request or by a smaller i of this one (such a record is
// logged all the same; compaction drops it). Whether values[i] is what
// the log holds for a lost key is the caller's to check. A failed
// commit indexes none of its batch, and err is the first failure.
func (s *KV) PutBatch(keys, values [][]byte) (lost []int, err error) {
	slab := getRecords(len(keys))
	defer recordSlabs.Put(slab)
	recs := *slab
	for i, key := range keys {
		if len(key) != s.ly.KeyLen {
			return nil, fmt.Errorf("%s: key of %d bytes, layout fixes %d", s.ly.Name, len(key), s.ly.KeyLen)
		}
		_, dup, err := find(s, key)
		if err != nil {
			return nil, err
		}
		if !dup { // a stored key's record stays zero: kind 0, no record
			a := &recs[i]
			a.kind, a.key, a.value = kvPut, key, values[i]
		}
	}
	if err := s.commitAll(recs); err != nil {
		return nil, err
	}
	for i := range recs {
		if a := &recs[i]; a.kind == 0 || !a.changed {
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
	slab := getRecords(len(keys))
	defer recordSlabs.Put(slab)
	recs := (*slab)[:0]
	for _, key := range keys {
		_, ok, err := find(s, key)
		if err != nil {
			return 0, err
		}
		if ok {
			recs = append(recs, kvAppend{kind: kvTomb, key: key})
		}
	}
	err = s.commitAll(recs)
	for i := range recs {
		if recs[i].changed {
			dropped++
		}
	}
	return dropped, err
}

// commitAll queues the records of recs (entries of kind 0 are skipped)
// in order and then parks until every one it queued is resolved; it
// returns the first failure. Every queued record is awaited whatever
// the others return: the first may have made this goroutine the batch
// leader, and an unawaited leader stalls the queue. That is also what
// lets PutBatch and DeleteBatch recycle their slabs: once commitAll
// returns, on any path, the committer holds no record of recs.
func (s *KV) commitAll(recs []kvAppend) error {
	var first error
	queued := 0 // recs[:queued] are queued, or skipped
	for i := range recs {
		if a := &recs[i]; a.kind != 0 {
			if first = s.comm.Enqueue(a); first != nil {
				break
			}
		}
		queued++
	}
	for i := range recs[:queued] {
		a := &recs[i]
		if a.kind == 0 {
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
// wmu at a batch tail, or with no leader at all). First it classifies
// the batch's records, which may read the disk; a failed read fails the
// batch before anything is written. On error nothing is applied.
func (s *KV) commit(batch []*kvAppend) error {
	for _, a := range batch {
		if err := s.classify(a); err != nil {
			return err
		}
	}
	seg := s.active
	base := seg.size.Load()
	var n int64
	for _, a := range batch {
		n += s.framed(a)
	}
	out := s.frameBuf(len(batch), int(n))
	for _, a := range batch {
		out = appendRecord(s.ly, out, a.kind, a.key, a.value)
		a.seg = seg.idx
		a.off = base + int64(len(out)) - int64(len(a.value))
	}
	if err := s.writeBatch(&s.ly.Format, seg.f, base, out, s.opts.Sync); err != nil {
		return err
	}
	seg.size.Store(base + int64(len(out)))
	return nil
}

// classify settles for apply, which runs under wmu and cannot fail, the
// one thing it cannot tell from memory: when an entry logged before the
// batch holds a's hash, whether that entry is a's key's — a put of a is
// then a duplicate and a tombstone drops it — or another key's, a
// collision. It reads the holder's key off its record. Only applies
// change which entry holds a hash, and they run one batch at a time
// after its commit, so the answer holds until a's apply; a rewrite may
// only move the holder, which the segment lock keeps still for the read.
func (s *KV) classify(a *kvAppend) error {
	h := keyHash(a.key)
	st := s.stripeOf(h)
	e, sure, ok := candidate(st, h, a.key)
	a.heldByKey = false
	if !ok || sure { // the hash is free, or a is in spill: the holder is another key
		return nil
	}
	seg := s.segment(e.seg)
	seg.mu.RLock()
	defer seg.mu.RUnlock()
	st.mu.RLock()
	e = st.m[h]
	st.mu.RUnlock()
	var err error
	a.heldByKey, err = recordHasKey(s, seg.f, e.off, a.key, nil)
	return err
}

// holds reports whether held, the entry holding a's hash at a's apply,
// is a's key's. An entry that a put of this batch, applied ahead of a,
// made is compared in memory, where that put's key still is; any other
// held the hash when the batch committed, and classify read whose it
// is.
func holds(batch []*kvAppend, held kvEntry, a *kvAppend) bool {
	if first := batch[0]; held.seg != first.seg || held.off < first.off {
		return a.heldByKey
	}
	i, ok := slices.BinarySearchFunc(batch, held.off, func(b *kvAppend, off int64) int { return cmp.Compare(b.off, off) })
	return ok && bytes.Equal(batch[i].key, a.key)
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
		h := keyHash(a.key)
		st := s.stripeOf(h)
		switch a.kind {
		case kvPut:
			e := kvEntry{seg: a.seg, off: a.off, vlen: uint32(len(a.value))}
			st.mu.Lock()
			_, dup := st.spill[string(a.key)]
			held, taken := st.m[h]
			switch {
			case dup:
			case !taken:
				st.m[h] = e
				a.changed = true
			case !holds(batch, held, a): // another key holds the hash: a collision, not a duplicate
				st.spill[string(a.key)] = e
				a.changed = true
			}
			st.mu.Unlock()
			if a.changed {
				seg.liveBytes.Add(s.framed(a))
				s.keys.Add(1)
				s.valueBytes.Add(uint64(len(a.value)))
			}
		case kvTomb:
			seg.tombBytes.Add(s.framed(a))
			st.mu.Lock()
			e, spilled := st.spill[string(a.key)]
			held, taken := st.m[h]
			switch {
			case spilled:
				delete(st.spill, string(a.key))
				a.changed = true
			case taken && holds(batch, held, a): // the hash's holder is this key
				delete(st.m, h)
				e, a.changed = held, true
			}
			st.mu.Unlock()
			if a.changed {
				s.segment(e.seg).liveBytes.Add(-s.ly.framedSize(e.vlen))
				s.keys.Add(^uint64(0))
				s.valueBytes.Add(^(uint64(e.vlen) - 1))
			}
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
// caller how much room a whole value needs; KeyLen bytes more let a read
// from the value's start check the key in the value's own pread.
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
	_, got, err := read(s, dst, key, off, length)
	return got, err
}

// read is getAppend, and the entry it read.
func read[K keyBytes](s *KV, dst []byte, key K, off, length uint32) (kvEntry, []byte, error) {
	h := keyHash(key)
	st := s.stripeOf(h)
	for {
		e, _, ok := candidate(st, h, key)
		if !ok {
			return kvEntry{}, nil, ErrNotFound
		}
		if e, got, moved, err := readIn(s, st, h, dst, key, e.seg, off, length); !moved {
			return e, got, err
		}
	}
}

// readIn is read under the read lock of segment idx, where key's
// candidate was: there no rewrite can move a record, so it fetches the
// candidate again, checks the key of the record it names unless the key
// itself found it, and reads the range. moved reports that the hash
// went to a record in another segment meanwhile — its holder was
// deleted and another key put — so the caller looks again.
//
// A key check is one pread of KeyLen bytes more, but none when dst has
// KeyLen bytes of room past a range that starts at the value's: the key
// sits right before the value, so both come in one pread and the value
// is moved down over the key.
func readIn[K keyBytes](s *KV, st *kvStripe, h uint64, dst []byte, key K, idx, off, length uint32) (e kvEntry, got []byte, moved bool, err error) {
	seg := s.segment(idx)
	seg.mu.RLock()
	defer seg.mu.RUnlock()
	e, sure, ok := candidate(st, h, key)
	switch {
	case !ok:
		return e, nil, false, ErrNotFound
	case e.seg != idx:
		return e, nil, true, nil
	}
	n, rangeErr := valueRange(e.vlen, off, length)
	klen, start := s.ly.KeyLen, len(dst)
	end := start + int(n)
	if !sure {
		var match bool
		if rangeErr == nil && off == 0 && cap(dst)-start >= klen+int(n) {
			both := dst[start : end+klen]
			if _, err := seg.f.ReadAt(both, e.off-int64(klen)); err != nil {
				return e, nil, false, s.readErr("read value", err)
			}
			if match = string(both[:klen]) == string(key); match {
				copy(both, both[klen:])
				return e, dst[:end], false, nil
			}
		} else {
			var into []byte // the key is read where the value will be, when it fits
			if rangeErr == nil && int(n) >= klen && end <= cap(dst) {
				into = dst[start : start+klen]
			}
			if match, err = recordHasKey(s, seg.f, e.off, key, into); err != nil {
				return e, nil, false, err
			}
		}
		if !match { // the record is another key's: key is not stored
			return e, nil, false, ErrNotFound
		}
	}
	if rangeErr != nil {
		return e, nil, false, rangeErr
	}
	if end > cap(dst) {
		dst = append(make([]byte, 0, end), dst...)
	}
	dst = dst[:end]
	if n > 0 {
		if _, err := seg.f.ReadAt(dst[start:], e.off+int64(off)); err != nil {
			return e, nil, false, s.readErr("read value", err)
		}
	}
	return e, dst, false, nil
}

// valueRange is the length of the range [off, off+length) of a
// vlen-byte value, length wire.WholePage meaning to its end.
func valueRange(vlen, off, length uint32) (uint32, error) {
	switch {
	case off > vlen:
		return 0, fmt.Errorf("%w: offset %d beyond %d bytes", ErrBadRange, off, vlen)
	case length == wire.WholePage:
		return vlen - off, nil
	case uint64(off)+uint64(length) > uint64(vlen):
		return 0, fmt.Errorf("%w: [%d,+%d) beyond %d bytes", ErrBadRange, off, length, vlen)
	}
	return length, nil
}

// Len reports the size of key's value, and whether key is stored. A key
// whose record cannot be read to check it reports absent.
func (s *KV) Len(key string) (uint32, bool) { return valueLen(s, key) }

// LenBytes is Len for a key held as bytes (see GetAppendBytes).
func (s *KV) LenBytes(key []byte) (uint32, bool) { return valueLen(s, key) }

func valueLen[K keyBytes](s *KV, key K) (uint32, bool) {
	if e, ok, err := find(s, key); ok && err == nil {
		return e.vlen, true
	}
	return 0, false
}

// LenHint is Len from memory alone, a hint for sizing a buffer: the
// size of the value the index holds under key's hash, and whether it
// holds one. false is certain; a size may — rarely, the hash being 64
// bits wide — be another key's, of the same hash, and key absent. It
// reads no disk, and it answers from the index even once the store is
// closed. KeyLen bytes of room on top of each value's size let
// GetAppendBytes read the value and check the key in one pread.
func (s *KV) LenHint(key []byte) (uint32, bool) {
	h := keyHash(key)
	e, _, ok := candidate(s.stripeOf(h), h, key)
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
