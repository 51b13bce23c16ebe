package wire

import "fmt"

// Kind is a message type code. Requests have odd codes, their responses the
// following even code; ErrorResp may answer any request.
type Kind uint8

// Message type codes. The numbering is part of the protocol; append only.
// A kind no process sends any more is retired, not deleted: its constant
// stays so its number is never reused, and its kindTable entry has no
// constructor, so it decodes as an unknown kind.
const (
	KindInvalid Kind = iota
	KindPingReq
	KindPingResp
	KindPutPageReq
	KindPutPageResp
	KindGetPageReq
	KindGetPageResp
	KindHasPageReq
	KindHasPageResp
	KindProviderStatsReq
	KindProviderStatsResp
	KindRegisterReq
	KindRegisterResp
	KindHeartbeatReq
	KindHeartbeatResp
	KindAllocateReq
	KindAllocateResp
	KindListProvidersReq
	KindListProvidersResp
	KindDHTPutReq
	KindDHTPutResp
	KindDHTGetReq
	KindDHTGetResp
	KindDHTMultiPutReq
	KindDHTMultiPutResp
	KindDHTMultiGetReq
	KindDHTMultiGetResp
	KindDHTStatsReq
	KindDHTStatsResp
	KindCreateBlobReq
	KindCreateBlobResp
	KindBlobInfoReq
	KindBlobInfoResp
	KindAssignReq
	KindAssignResp
	KindCompleteReq
	KindCompleteResp
	KindAbortReq
	KindAbortResp
	KindRecentReq
	KindRecentResp
	KindSizeReq
	KindSizeResp
	KindSyncReq
	KindSyncResp
	KindBranchReq
	KindBranchResp
	KindErrorResp
	// Retention/GC kinds postdate KindErrorResp; the append-only rule
	// outweighs the requests-odd convention above.
	KindDeletePagesReq
	KindDeletePagesResp
	KindExpireReq
	KindExpireResp
	KindGCInfoReq
	KindGCInfoResp
	KindDHTDeleteReq
	KindDHTDeleteResp
	// Batched page reads (read-path coalescing): one request carries
	// ranges from many pages held by the same provider.
	KindGetPagesReq
	KindGetPagesResp
	kindMax
)

// kindTable declares each kind once: its symbolic name and the
// constructor of its zero message, which is what makes a kind decodable
// off the wire; a retired kind keeps its name and has no constructor.
// blobseer-vet's wirekinds check reads it.
var kindTable = [kindMax]struct {
	name string
	new  func() Msg
}{
	KindInvalid:           {name: "Invalid"},
	KindPingReq:           {name: "PingReq"},
	KindPingResp:          {name: "PingResp"},
	KindPutPageReq:        {"PutPageReq", zero[PutPageReq]},
	KindPutPageResp:       {"PutPageResp", zero[PutPageResp]},
	KindGetPageReq:        {name: "GetPageReq"},
	KindGetPageResp:       {name: "GetPageResp"},
	KindHasPageReq:        {name: "HasPageReq"},
	KindHasPageResp:       {name: "HasPageResp"},
	KindProviderStatsReq:  {name: "ProviderStatsReq"},
	KindProviderStatsResp: {name: "ProviderStatsResp"},
	KindRegisterReq:       {"RegisterReq", zero[RegisterReq]},
	KindRegisterResp:      {"RegisterResp", zero[RegisterResp]},
	KindHeartbeatReq:      {"HeartbeatReq", zero[HeartbeatReq]},
	KindHeartbeatResp:     {"HeartbeatResp", zero[HeartbeatResp]},
	KindAllocateReq:       {"AllocateReq", zero[AllocateReq]},
	KindAllocateResp:      {"AllocateResp", zero[AllocateResp]},
	KindListProvidersReq:  {name: "ListProvidersReq"},
	KindListProvidersResp: {name: "ListProvidersResp"},
	KindDHTPutReq:         {name: "DHTPutReq"},
	KindDHTPutResp:        {name: "DHTPutResp"},
	KindDHTGetReq:         {name: "DHTGetReq"},
	KindDHTGetResp:        {name: "DHTGetResp"},
	KindDHTMultiPutReq:    {"DHTMultiPutReq", zero[DHTMultiPutReq]},
	KindDHTMultiPutResp:   {"DHTMultiPutResp", zero[DHTMultiPutResp]},
	KindDHTMultiGetReq:    {"DHTMultiGetReq", zero[DHTMultiGetReq]},
	KindDHTMultiGetResp:   {"DHTMultiGetResp", zero[DHTMultiGetResp]},
	KindDHTStatsReq:       {name: "DHTStatsReq"},
	KindDHTStatsResp:      {name: "DHTStatsResp"},
	KindCreateBlobReq:     {"CreateBlobReq", zero[CreateBlobReq]},
	KindCreateBlobResp:    {"CreateBlobResp", zero[CreateBlobResp]},
	KindBlobInfoReq:       {"BlobInfoReq", zero[BlobInfoReq]},
	KindBlobInfoResp:      {"BlobInfoResp", zero[BlobInfoResp]},
	KindAssignReq:         {"AssignReq", zero[AssignReq]},
	KindAssignResp:        {"AssignResp", zero[AssignResp]},
	KindCompleteReq:       {"CompleteReq", zero[CompleteReq]},
	KindCompleteResp:      {"CompleteResp", zero[CompleteResp]},
	KindAbortReq:          {"AbortReq", zero[AbortReq]},
	KindAbortResp:         {"AbortResp", zero[AbortResp]},
	KindRecentReq:         {"RecentReq", zero[RecentReq]},
	KindRecentResp:        {"RecentResp", zero[RecentResp]},
	KindSizeReq:           {"SizeReq", zero[SizeReq]},
	KindSizeResp:          {"SizeResp", zero[SizeResp]},
	KindSyncReq:           {"SyncReq", zero[SyncReq]},
	KindSyncResp:          {"SyncResp", zero[SyncResp]},
	KindBranchReq:         {"BranchReq", zero[BranchReq]},
	KindBranchResp:        {"BranchResp", zero[BranchResp]},
	KindErrorResp:         {"ErrorResp", zero[ErrorResp]},
	KindDeletePagesReq:    {"DeletePagesReq", zero[DeletePagesReq]},
	KindDeletePagesResp:   {"DeletePagesResp", zero[DeletePagesResp]},
	KindExpireReq:         {"ExpireReq", zero[ExpireReq]},
	KindExpireResp:        {"ExpireResp", zero[ExpireResp]},
	KindGCInfoReq:         {"GCInfoReq", zero[GCInfoReq]},
	KindGCInfoResp:        {"GCInfoResp", zero[GCInfoResp]},
	KindDHTDeleteReq:      {"DHTDeleteReq", zero[DHTDeleteReq]},
	KindDHTDeleteResp:     {"DHTDeleteResp", zero[DHTDeleteResp]},
	KindGetPagesReq:       {"GetPagesReq", zero[GetPagesReq]},
	KindGetPagesResp:      {"GetPagesResp", zero[GetPagesResp]},
}

// zero builds the zero message of type T.
func zero[T any, P interface {
	*T
	Msg
}]() Msg {
	return P(new(T))
}

// String returns the symbolic name of the kind.
func (k Kind) String() string {
	if k < kindMax {
		return kindTable[k].name
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Msg is implemented by every protocol message.
type Msg interface {
	Kind() Kind
	// code is the message body's layout (excluding kind). It takes and
	// returns the Codec by value: the argument of an interface call
	// escapes to the heap, and a value argument is a copy, so the
	// caller's Codec stays on its stack.
	code(c Codec) Codec
}

// sized is implemented by the kinds that carry page payloads, whose
// encoded size is worth computing before marshalling.
type sized interface{ bodySize() int }

// BodySize returns the exact encoded body size of the kinds that carry
// page payloads (PutPageReq, GetPagesResp) and 0 for every other kind,
// whose bodies are small enough to size by growing.
func BodySize(m Msg) int {
	if s, ok := m.(sized); ok {
		return s.bodySize()
	}
	return 0
}

// New returns a zero message of the given kind, or nil if unknown.
func New(k Kind) Msg {
	if k < kindMax && kindTable[k].new != nil {
		return kindTable[k].new()
	}
	return nil
}

// ------------------------------------------------------- data provider

// PutPageReq stores one immutable page under a globally unique id.
//
// A decoded PutPageReq's Data aliases the frame body it was decoded
// from instead of copying it: the rpc server recycles that body, so
// Data is valid until the request's handler returns and must be copied
// by whoever keeps it (pagestore.Store.Put does).
type PutPageReq struct {
	Page PageID
	Data []byte
}

// Kind implements Msg.
func (*PutPageReq) Kind() Kind { return KindPutPageReq }

func (m *PutPageReq) code(c Codec) Codec { c.Fixed(m.Page[:]); c.BytesAlias(&m.Data); return c }

func (m *PutPageReq) bodySize() int { return len(m.Page) + 4 + len(m.Data) }

// PutPageResp acknowledges PutPageReq.
type PutPageResp struct{}

// Kind implements Msg.
func (*PutPageResp) Kind() Kind { return KindPutPageResp }

func (*PutPageResp) code(c Codec) Codec { return c }

// ----------------------------------------------------- provider manager

// RegisterReq announces a (re)joining data provider to the provider
// manager. Addr is the address clients should dial to reach it. Weight
// is a reserved slot: placement is round-robin and no manager has ever
// read it; NewRegisterReq fills in the 1 every provider has ever sent.
type RegisterReq struct {
	Addr   string
	Weight uint32
}

// NewRegisterReq builds the registration of the provider at addr.
func NewRegisterReq(addr string) *RegisterReq { return &RegisterReq{Addr: addr, Weight: 1} }

// Kind implements Msg.
func (*RegisterReq) Kind() Kind { return KindRegisterReq }

func (m *RegisterReq) code(c Codec) Codec { c.String(&m.Addr); c.Uint32(&m.Weight); return c }

// RegisterResp acknowledges registration with the manager-local id.
type RegisterResp struct{ ID uint32 }

// Kind implements Msg.
func (*RegisterResp) Kind() Kind { return KindRegisterResp }

func (m *RegisterResp) code(c Codec) Codec { c.Uint32(&m.ID); return c }

// HeartbeatReq refreshes a provider's liveness. Pages and Bytes keep
// the frame's shape and go unset: a provider's load is its own series.
type HeartbeatReq struct {
	ID    uint32
	Pages uint64
	Bytes uint64
}

// Kind implements Msg.
func (*HeartbeatReq) Kind() Kind { return KindHeartbeatReq }

func (m *HeartbeatReq) code(c Codec) Codec {
	c.Uint32(&m.ID)
	c.Uint64(&m.Pages)
	c.Uint64(&m.Bytes)
	return c
}

// HeartbeatResp acknowledges a heartbeat. Known=false instructs the
// provider to re-register (the manager restarted or expired it).
type HeartbeatResp struct{ Known bool }

// Kind implements Msg.
func (*HeartbeatResp) Kind() Kind { return KindHeartbeatResp }

func (m *HeartbeatResp) code(c Codec) Codec { c.Bool(&m.Known); return c }

// AllocateReq asks the provider manager for N page providers chosen by
// its distribution strategy (one per page to be stored, §3.3). Copies
// requests that many replicas per page — on distinct providers when the
// cluster is large enough — for the replication extension; 0 or 1 means
// the paper's single-copy layout.
type AllocateReq struct {
	N      uint32
	Copies uint32
}

// Kind implements Msg.
func (*AllocateReq) Kind() Kind { return KindAllocateReq }

func (m *AllocateReq) code(c Codec) Codec { c.Uint32(&m.N); c.Uint32(&m.Copies); return c }

// AllocateResp lists the chosen provider addresses: one group of Copies
// addresses per page, flattened, so page i's replicas are
// Addrs[i*Copies:(i+1)*Copies].
type AllocateResp struct{ Addrs []string }

// Kind implements Msg.
func (*AllocateResp) Kind() Kind { return KindAllocateResp }

func (m *AllocateResp) code(c Codec) Codec {
	for i := range Slice(&c, &m.Addrs, 4) {
		c.String(&m.Addrs[i])
	}
	return c
}

// ------------------------------------------------------------------ DHT

// DHTMultiPutReq stores several pairs in one round trip. Writers use it to
// store all tree nodes destined for the same metadata provider at once.
//
// A decoded DHTMultiPutReq's keys and values alias the frame body they
// were decoded from, like PutPageReq.Data: they are valid until the
// request's handler returns, and the metadata node copies what it keeps
// (the node's engines do, at exact size).
type DHTMultiPutReq struct {
	Keys   [][]byte
	Values [][]byte
}

// Kind implements Msg.
func (*DHTMultiPutReq) Kind() Kind { return KindDHTMultiPutReq }

func (m *DHTMultiPutReq) code(c Codec) Codec {
	// Every pair carries two length prefixes; one allocation holds both
	// halves.
	n := c.Len(len(m.Keys), 8)
	if c.dec {
		pairs := make([][]byte, 2*n)
		m.Keys, m.Values = pairs[:n:n], pairs[n:]
	}
	for i := range n {
		c.BytesAlias(&m.Keys[i])
		c.BytesAlias(&m.Values[i])
	}
	return c
}

// DHTMultiPutResp acknowledges DHTMultiPutReq.
type DHTMultiPutResp struct{}

// Kind implements Msg.
func (*DHTMultiPutResp) Kind() Kind { return KindDHTMultiPutResp }

func (*DHTMultiPutResp) code(c Codec) Codec { return c }

// DHTMultiGetReq fetches several keys in one round trip.
//
// A decoded DHTMultiGetReq's keys alias the frame body they were decoded
// from, like DHTMultiPutReq's: they are valid until the request's
// handler returns, which is as long as a lookup needs them.
type DHTMultiGetReq struct{ Keys [][]byte }

// Kind implements Msg.
func (*DHTMultiGetReq) Kind() Kind { return KindDHTMultiGetReq }

func (m *DHTMultiGetReq) code(c Codec) Codec {
	for i := range Slice(&c, &m.Keys, 4) {
		c.BytesAlias(&m.Keys[i])
	}
	return c
}

// DHTMultiGetResp answers DHTMultiGetReq; entries align with request keys.
type DHTMultiGetResp struct {
	Found  []bool
	Values [][]byte
}

// Kind implements Msg.
func (*DHTMultiGetResp) Kind() Kind { return KindDHTMultiGetResp }

func (m *DHTMultiGetResp) code(c Codec) Codec {
	n := Slice(&c, &m.Found, 5)
	if c.dec {
		m.Values = make([][]byte, n)
	}
	for i := range n {
		c.Bool(&m.Found[i])
		c.Bytes(&m.Values[i])
	}
	return c
}

// -------------------------------------------------------- version manager

// CreateBlobReq creates a blob with the given page size (a power of two).
type CreateBlobReq struct{ PageSize uint32 }

// Kind implements Msg.
func (*CreateBlobReq) Kind() Kind { return KindCreateBlobReq }

func (m *CreateBlobReq) code(c Codec) Codec { c.Uint32(&m.PageSize); return c }

// CreateBlobResp returns the globally unique id of the new blob, which is
// born with the published empty snapshot 0.
type CreateBlobResp struct{ Blob BlobID }

// Kind implements Msg.
func (*CreateBlobResp) Kind() Kind { return KindCreateBlobResp }

func (m *CreateBlobResp) code(c Codec) Codec { c.Uint64((*uint64)(&m.Blob)); return c }

// BlobInfoReq fetches a blob's immutable attributes.
type BlobInfoReq struct{ Blob BlobID }

// Kind implements Msg.
func (*BlobInfoReq) Kind() Kind { return KindBlobInfoReq }

func (m *BlobInfoReq) code(c Codec) Codec { c.Uint64((*uint64)(&m.Blob)); return c }

// BlobInfoResp carries a blob's page size and lineage chain (youngest
// entry first; used to resolve which namespace owns each version's tree
// nodes across BRANCH boundaries).
type BlobInfoResp struct {
	PageSize uint32
	Lineage  Lineage
}

// Kind implements Msg.
func (*BlobInfoResp) Kind() Kind { return KindBlobInfoResp }

func (m *BlobInfoResp) code(c Codec) Codec {
	c.Uint32(&m.PageSize)
	for i := range Slice(&c, (*[]LineageEntry)(&m.Lineage), 16) {
		m.Lineage[i].Code(&c)
	}
	return c
}

// AssignReq registers an update and requests a snapshot version. For a
// WRITE, Offset/Size describe the target range. For an APPEND, Append is
// true, Offset is ignored, and the version manager assigns the offset
// (the size of the previous snapshot, §3.3).
type AssignReq struct {
	Blob   BlobID
	Offset uint64
	Size   uint64
	Append bool
}

// Kind implements Msg.
func (*AssignReq) Kind() Kind { return KindAssignReq }

func (m *AssignReq) code(c Codec) Codec {
	c.Uint64((*uint64)(&m.Blob))
	c.Uint64(&m.Offset)
	c.Uint64(&m.Size)
	c.Bool(&m.Append)
	return c
}

// AssignResp returns the assigned snapshot version together with
// everything the writer needs to weave metadata without further
// synchronization: the assigned offset (== requested for WRITE, == size of
// the previous snapshot for APPEND), the most recently published version
// and its size, and the descriptors of in-flight lower-versioned updates
// (the paper's partial border set, §4.2).
type AssignResp struct {
	Version       Version
	Offset        uint64
	NewSize       uint64
	PrevSize      uint64 // size of snapshot Version-1 (pending updates included)
	Published     Version
	PublishedSize uint64
	InFlight      []UpdateDesc
}

// Kind implements Msg.
func (*AssignResp) Kind() Kind { return KindAssignResp }

func (m *AssignResp) code(c Codec) Codec {
	c.Uint64(&m.Version)
	c.Uint64(&m.Offset)
	c.Uint64(&m.NewSize)
	c.Uint64(&m.PrevSize)
	c.Uint64(&m.Published)
	c.Uint64(&m.PublishedSize)
	for i := range Slice(&c, &m.InFlight, 24) {
		m.InFlight[i].code(&c)
	}
	return c
}

// CompleteReq notifies the version manager that the writer finished
// storing pages and metadata for Version; the manager will publish it once
// all earlier versions are published (total ordering, §2).
type CompleteReq struct {
	Blob    BlobID
	Version Version
}

// Kind implements Msg.
func (*CompleteReq) Kind() Kind { return KindCompleteReq }

func (m *CompleteReq) code(c Codec) Codec {
	c.Uint64((*uint64)(&m.Blob))
	c.Uint64(&m.Version)
	return c
}

// CompleteResp acknowledges CompleteReq.
type CompleteResp struct{}

// Kind implements Msg.
func (*CompleteResp) Kind() Kind { return KindCompleteResp }

func (*CompleteResp) code(c Codec) Codec { return c }

// AbortReq withdraws an assigned but unpublished update so later versions
// are not blocked behind a writer that failed.
type AbortReq struct {
	Blob    BlobID
	Version Version
}

// Kind implements Msg.
func (*AbortReq) Kind() Kind { return KindAbortReq }

func (m *AbortReq) code(c Codec) Codec { c.Uint64((*uint64)(&m.Blob)); c.Uint64(&m.Version); return c }

// AbortResp acknowledges AbortReq.
type AbortResp struct{}

// Kind implements Msg.
func (*AbortResp) Kind() Kind { return KindAbortResp }

func (*AbortResp) code(c Codec) Codec { return c }

// RecentReq implements GET_RECENT: a recently published version of a blob.
type RecentReq struct{ Blob BlobID }

// Kind implements Msg.
func (*RecentReq) Kind() Kind { return KindRecentReq }

func (m *RecentReq) code(c Codec) Codec { c.Uint64((*uint64)(&m.Blob)); return c }

// RecentResp returns the latest published version and its size. The
// guarantee is Version >= every version published before the call (§2.1).
type RecentResp struct {
	Version Version
	Size    uint64
}

// Kind implements Msg.
func (*RecentResp) Kind() Kind { return KindRecentResp }

func (m *RecentResp) code(c Codec) Codec { c.Uint64(&m.Version); c.Uint64(&m.Size); return c }

// SizeReq implements GET_SIZE for a published snapshot version.
type SizeReq struct {
	Blob    BlobID
	Version Version
}

// Kind implements Msg.
func (*SizeReq) Kind() Kind { return KindSizeReq }

func (m *SizeReq) code(c Codec) Codec { c.Uint64((*uint64)(&m.Blob)); c.Uint64(&m.Version); return c }

// SizeResp returns the snapshot's size in bytes.
type SizeResp struct{ Size uint64 }

// Kind implements Msg.
func (*SizeResp) Kind() Kind { return KindSizeResp }

func (m *SizeResp) code(c Codec) Codec { c.Uint64(&m.Size); return c }

// SyncReq implements SYNC: the response is withheld until Version of Blob
// is published.
type SyncReq struct {
	Blob    BlobID
	Version Version
}

// Kind implements Msg.
func (*SyncReq) Kind() Kind { return KindSyncReq }

func (m *SyncReq) code(c Codec) Codec { c.Uint64((*uint64)(&m.Blob)); c.Uint64(&m.Version); return c }

// SyncResp is sent once the awaited version is published.
type SyncResp struct{}

// Kind implements Msg.
func (*SyncResp) Kind() Kind { return KindSyncResp }

func (*SyncResp) code(c Codec) Codec { return c }

// BranchReq implements BRANCH: virtually duplicate Blob at published
// Version into a new blob.
type BranchReq struct {
	Blob    BlobID
	Version Version
}

// Kind implements Msg.
func (*BranchReq) Kind() Kind { return KindBranchReq }

func (m *BranchReq) code(c Codec) Codec { c.Uint64((*uint64)(&m.Blob)); c.Uint64(&m.Version); return c }

// BranchResp returns the id of the new branched blob.
type BranchResp struct{ NewBlob BlobID }

// Kind implements Msg.
func (*BranchResp) Kind() Kind { return KindBranchResp }

func (m *BranchResp) code(c Codec) Codec { c.Uint64((*uint64)(&m.NewBlob)); return c }

// ErrorResp may answer any request; it carries a stable error code and a
// human-readable message.
type ErrorResp struct {
	Code ErrCode
	Msg  string
}

// Kind implements Msg.
func (*ErrorResp) Kind() Kind { return KindErrorResp }

func (m *ErrorResp) code(c Codec) Codec { c.Uint16((*uint16)(&m.Code)); c.String(&m.Msg); return c }

// --------------------------------------------------------- retention / GC

// DeletePagesReq asks a data provider to drop a batch of pages. The
// caller — the garbage collector walking version metadata, or a writer
// reclaiming pages it abandoned before they were ever referenced — must
// have proven every page unreachable from all retained snapshot versions.
// Deleting an unknown page is a no-op, so retries and concurrent
// collectors are harmless.
type DeletePagesReq struct{ Pages []PageID }

// Kind implements Msg.
func (*DeletePagesReq) Kind() Kind { return KindDeletePagesReq }

func (m *DeletePagesReq) code(c Codec) Codec {
	for i := range Slice(&c, &m.Pages, 16) {
		c.Fixed(m.Pages[i][:])
	}
	return c
}

// DeletePagesResp acknowledges DeletePagesReq: every requested page is
// now absent (deleted, or never stored here).
type DeletePagesResp struct{}

// Kind implements Msg.
func (*DeletePagesResp) Kind() Kind { return KindDeletePagesResp }

func (*DeletePagesResp) code(c Codec) Codec { return c }

// ExpireReq implements EXPIRE: it asks the version manager to mark every
// snapshot of Blob's own namespace with version <= UpTo as expired
// (permanently unreadable), making their exclusively owned pages
// reclaimable by GC. The manager refuses if UpTo reaches the newest
// readable version, a version pinned as a branch point by a live child
// blob, or the published base an in-flight update is weaving against; it
// silently clamps to the configured keep-last-N retention policy.
type ExpireReq struct {
	Blob BlobID
	UpTo Version
}

// Kind implements Msg.
func (*ExpireReq) Kind() Kind { return KindExpireReq }

func (m *ExpireReq) code(c Codec) Codec { c.Uint64((*uint64)(&m.Blob)); c.Uint64(&m.UpTo); return c }

// ExpireResp reports the blob's expiry floor after the request: every
// owned version below Floor is expired. Expired lists the published
// versions this call newly expired (empty for an idempotent repeat or a
// fully clamped request).
type ExpireResp struct {
	Floor   Version
	Expired []Version
}

// Kind implements Msg.
func (*ExpireResp) Kind() Kind { return KindExpireResp }

func (m *ExpireResp) code(c Codec) Codec {
	c.Uint64(&m.Floor)
	for i := range Slice(&c, &m.Expired, 8) {
		c.Uint64(&m.Expired[i])
	}
	return c
}

// VersionInfo pairs a snapshot version with its byte size, enough for a
// GC walker to construct the snapshot's tree root.
type VersionInfo struct {
	Version Version
	Size    uint64
}

func (v *VersionInfo) code(c *Codec) {
	c.Uint64(&v.Version)
	c.Uint64(&v.Size)
}

// GCInfoReq asks the version manager what a garbage collection of Blob
// should walk. It is read-only and idempotent, so a collector that
// crashed mid-sweep can re-fetch the same plan and resume.
type GCInfoReq struct{ Blob BlobID }

// Kind implements Msg.
func (*GCInfoReq) Kind() Kind { return KindGCInfoReq }

func (m *GCInfoReq) code(c Codec) Codec { c.Uint64((*uint64)(&m.Blob)); return c }

// GCInfoResp is the GC plan for one blob namespace: the expired published
// versions whose trees the collector walks for deletion candidates, and
// the oldest retained version whose tree it diffs against (any page a
// retained snapshot can still reach is reachable from the oldest one —
// trees share monotonically). OwnMin is the blob's own namespace floor
// from its lineage: nodes referenced below it belong to an ancestor blob
// and are that ancestor's GC's business.
type GCInfoResp struct {
	OwnMin   Version
	Floor    Version
	Retained VersionInfo
	Expired  []VersionInfo
}

// Kind implements Msg.
func (*GCInfoResp) Kind() Kind { return KindGCInfoResp }

func (m *GCInfoResp) code(c Codec) Codec {
	c.Uint64(&m.OwnMin)
	c.Uint64(&m.Floor)
	m.Retained.code(&c)
	for i := range Slice(&c, &m.Expired, 16) {
		m.Expired[i].code(&c)
	}
	return c
}

// DHTDeleteReq asks a metadata provider to drop a batch of key/value
// pairs — the metadata twin of DeletePagesReq. The caller (the garbage
// collector diffing expired snapshot trees against the oldest retained
// one) must have proven every key unreachable from all retained
// versions and branches. Deleting an unknown key is a no-op, so retries
// and concurrent collectors are harmless.
type DHTDeleteReq struct{ Keys [][]byte }

// Kind implements Msg.
func (*DHTDeleteReq) Kind() Kind { return KindDHTDeleteReq }

func (m *DHTDeleteReq) code(c Codec) Codec {
	for i := range Slice(&c, &m.Keys, 4) {
		c.Bytes(&m.Keys[i])
	}
	return c
}

// DHTDeleteResp acknowledges DHTDeleteReq: every requested key is now
// absent on this node. Deleted counts the keys that actually existed
// here, so collectors can report how much metadata one sweep removed.
type DHTDeleteResp struct{ Deleted uint64 }

// Kind implements Msg.
func (*DHTDeleteResp) Kind() Kind { return KindDHTDeleteResp }

func (m *DHTDeleteResp) code(c Codec) Codec { c.Uint64(&m.Deleted); return c }

// PageRange addresses Length bytes starting at Offset within one page.
type PageRange struct {
	Page   PageID
	Offset uint32
	Length uint32
}

// WholePage as PageRange.Length requests the full page contents.
const WholePage = ^uint32(0)

// MaxGetPagesRanges and MaxGetPagesBytes bound one GetPagesReq: at most
// MaxGetPagesRanges entries per request, and at most MaxGetPagesBytes of
// cumulative page payload in the response. A provider builds the whole
// batch answer in memory before replying, so without the caps one
// request could pin an unbounded buffer server-side. Providers reject
// requests beyond either cap; clients split larger scans into multiple
// batches. The first range is exempt from the byte cap, so one whole
// page is always fetchable.
const (
	MaxGetPagesRanges = 4096
	MaxGetPagesBytes  = 64 << 20
)

// GetPagesReq reads page ranges from one provider in a single round
// trip. It is the one page-read request: a read of one page sends one
// range, and a sequential scan batches many, so a contiguous read costs
// few large requests instead of one RPC per page. Requests must respect
// MaxGetPagesRanges and MaxGetPagesBytes.
type GetPagesReq struct{ Ranges []PageRange }

// Kind implements Msg.
func (*GetPagesReq) Kind() Kind { return KindGetPagesReq }

func (m *GetPagesReq) code(c Codec) Codec {
	for i := range Slice(&c, &m.Ranges, 24) {
		r := &m.Ranges[i]
		c.Fixed(r.Page[:])
		c.Uint32(&r.Offset)
		c.Uint32(&r.Length)
	}
	return c
}

// GetPagesResp answers GetPagesReq entry-for-entry: Found[i] says
// whether the provider holds Ranges[i].Page, and Data[i] carries its
// bytes (empty when absent). A missing page is per-entry data, not an
// error, so one cold replica cannot fail a whole batch. Decoded, each
// Data[i] is a pooled buffer (Codec.BytesPooled), nil when empty.
type GetPagesResp struct {
	Found []bool
	Data  [][]byte
}

// Kind implements Msg.
func (*GetPagesResp) Kind() Kind { return KindGetPagesResp }

func (m *GetPagesResp) code(c Codec) Codec {
	n := Slice(&c, &m.Found, 5)
	if c.dec {
		m.Data = make([][]byte, n)
	}
	for i := range n {
		c.Bool(&m.Found[i])
		c.BytesPooled(&m.Data[i])
	}
	return c
}

func (m *GetPagesResp) bodySize() int {
	n := 4 + 5*len(m.Found)
	for i := range m.Found {
		n += len(m.Data[i])
	}
	return n
}
