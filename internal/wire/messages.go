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
	KindPingReq:           {"PingReq", zero[PingReq]},
	KindPingResp:          {"PingResp", zero[PingResp]},
	KindPutPageReq:        {"PutPageReq", zero[PutPageReq]},
	KindPutPageResp:       {"PutPageResp", zero[PutPageResp]},
	KindGetPageReq:        {"GetPageReq", zero[GetPageReq]},
	KindGetPageResp:       {"GetPageResp", zero[GetPageResp]},
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
	// MarshalTo appends the message body (excluding kind) to w.
	MarshalTo(w *Writer)
	// unmarshal decodes the message body from r.
	unmarshal(r *Reader)
}

// sized is implemented by the kinds that carry page payloads, whose
// encoded size is worth computing before marshalling.
type sized interface{ bodySize() int }

// BodySize returns the exact encoded body size of the kinds that carry
// page payloads (PutPageReq, GetPageResp, GetPagesResp) and 0 for every
// other kind, whose bodies are small enough to size by growing.
func BodySize(m Msg) int {
	if s, ok := m.(sized); ok {
		return s.bodySize()
	}
	return 0
}

// Decoder decodes message bodies one after another through one Reader
// of its own. A Reader escapes to the heap through the unmarshal
// interface call, so a goroutine that decodes every frame of a
// connection keeps a Decoder and pays for that once, not per message.
// The zero value is ready to use; a Decoder is not safe for concurrent
// use. It holds no reference to a body once Decode has returned, so the
// caller may recycle the body as soon as nothing decoded by alias is in
// use.
type Decoder struct{ r Reader }

// Decode decodes a message body of the given kind. The message owns
// every field it decodes except PutPageReq.Data, DHTMultiPutReq's keys
// and values and DHTMultiGetReq's keys, which alias body: the requests
// whose handlers copy what they keep into storage of their own anyway,
// or keep nothing. A decoded GetPageResp.Data or GetPagesResp.Data[i]
// is a pooled buffer that aliases nothing: its receiver may keep it, or
// hand it back once with bufpool.PutBytes when nothing reads it any more.
func (d *Decoder) Decode(k Kind, body []byte) (Msg, error) {
	m := New(k)
	if m == nil {
		return nil, fmt.Errorf("wire: unknown message kind %d", uint8(k))
	}
	d.r = Reader{buf: body}
	m.unmarshal(&d.r)
	err := d.r.Finish()
	d.r = Reader{}
	if err != nil {
		return nil, fmt.Errorf("wire: decoding %v: %w", k, err)
	}
	return m, nil
}

// New returns a zero message of the given kind, or nil if unknown.
func New(k Kind) Msg {
	if k < kindMax && kindTable[k].new != nil {
		return kindTable[k].new()
	}
	return nil
}

// ---------------------------------------------------------------- ping

// PingReq checks liveness; the peer echoes Nonce back.
type PingReq struct{ Nonce uint64 }

// Kind implements Msg.
func (*PingReq) Kind() Kind { return KindPingReq }

// MarshalTo implements Msg.
func (m *PingReq) MarshalTo(w *Writer) { w.Uint64(m.Nonce) }
func (m *PingReq) unmarshal(r *Reader) { m.Nonce = r.Uint64() }

// PingResp answers PingReq.
type PingResp struct{ Nonce uint64 }

// Kind implements Msg.
func (*PingResp) Kind() Kind { return KindPingResp }

// MarshalTo implements Msg.
func (m *PingResp) MarshalTo(w *Writer) { w.Uint64(m.Nonce) }
func (m *PingResp) unmarshal(r *Reader) { m.Nonce = r.Uint64() }

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

// MarshalTo implements Msg.
func (m *PutPageReq) MarshalTo(w *Writer) {
	w.Raw(m.Page[:])
	w.Bytes32(m.Data)
}

func (m *PutPageReq) unmarshal(r *Reader) {
	copy(m.Page[:], r.Raw(16))
	m.Data = r.Bytes32()
}

func (m *PutPageReq) bodySize() int { return len(m.Page) + 4 + len(m.Data) }

// PutPageResp acknowledges PutPageReq.
type PutPageResp struct{}

// Kind implements Msg.
func (*PutPageResp) Kind() Kind { return KindPutPageResp }

// MarshalTo implements Msg.
func (m *PutPageResp) MarshalTo(*Writer) {}
func (m *PutPageResp) unmarshal(*Reader) {}

// GetPageReq reads Length bytes starting at Offset within a page.
// Length == WholePage requests the entire page.
type GetPageReq struct {
	Page   PageID
	Offset uint32
	Length uint32
}

// WholePage as GetPageReq.Length requests the full page contents.
const WholePage = ^uint32(0)

// Kind implements Msg.
func (*GetPageReq) Kind() Kind { return KindGetPageReq }

// MarshalTo implements Msg.
func (m *GetPageReq) MarshalTo(w *Writer) {
	w.Raw(m.Page[:])
	w.Uint32(m.Offset)
	w.Uint32(m.Length)
}

func (m *GetPageReq) unmarshal(r *Reader) {
	copy(m.Page[:], r.Raw(16))
	m.Offset = r.Uint32()
	m.Length = r.Uint32()
}

// GetPageResp carries the requested page bytes. Decoded, Data is a
// pooled buffer (Reader.Bytes32Pooled), nil when empty.
type GetPageResp struct{ Data []byte }

// Kind implements Msg.
func (*GetPageResp) Kind() Kind { return KindGetPageResp }

// MarshalTo implements Msg.
func (m *GetPageResp) MarshalTo(w *Writer) { w.Bytes32(m.Data) }
func (m *GetPageResp) unmarshal(r *Reader) { m.Data = r.Bytes32Pooled() }
func (m *GetPageResp) bodySize() int       { return 4 + len(m.Data) }

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

// MarshalTo implements Msg.
func (m *RegisterReq) MarshalTo(w *Writer) {
	w.String(m.Addr)
	w.Uint32(m.Weight)
}

func (m *RegisterReq) unmarshal(r *Reader) {
	m.Addr = r.String()
	m.Weight = r.Uint32()
}

// RegisterResp acknowledges registration with the manager-local id.
type RegisterResp struct{ ID uint32 }

// Kind implements Msg.
func (*RegisterResp) Kind() Kind { return KindRegisterResp }

// MarshalTo implements Msg.
func (m *RegisterResp) MarshalTo(w *Writer) { w.Uint32(m.ID) }
func (m *RegisterResp) unmarshal(r *Reader) { m.ID = r.Uint32() }

// HeartbeatReq refreshes a provider's liveness. Pages and Bytes keep
// the frame's shape and go unset: a provider's load is its own series.
type HeartbeatReq struct {
	ID    uint32
	Pages uint64
	Bytes uint64
}

// Kind implements Msg.
func (*HeartbeatReq) Kind() Kind { return KindHeartbeatReq }

// MarshalTo implements Msg.
func (m *HeartbeatReq) MarshalTo(w *Writer) {
	w.Uint32(m.ID)
	w.Uint64(m.Pages)
	w.Uint64(m.Bytes)
}

func (m *HeartbeatReq) unmarshal(r *Reader) {
	m.ID = r.Uint32()
	m.Pages = r.Uint64()
	m.Bytes = r.Uint64()
}

// HeartbeatResp acknowledges a heartbeat. Known=false instructs the
// provider to re-register (the manager restarted or expired it).
type HeartbeatResp struct{ Known bool }

// Kind implements Msg.
func (*HeartbeatResp) Kind() Kind { return KindHeartbeatResp }

// MarshalTo implements Msg.
func (m *HeartbeatResp) MarshalTo(w *Writer) { w.Bool(m.Known) }
func (m *HeartbeatResp) unmarshal(r *Reader) { m.Known = r.Bool() }

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

// MarshalTo implements Msg.
func (m *AllocateReq) MarshalTo(w *Writer) { w.Uint32(m.N); w.Uint32(m.Copies) }
func (m *AllocateReq) unmarshal(r *Reader) { m.N = r.Uint32(); m.Copies = r.Uint32() }

// AllocateResp lists the chosen provider addresses: one group of Copies
// addresses per page, flattened, so page i's replicas are
// Addrs[i*Copies:(i+1)*Copies].
type AllocateResp struct{ Addrs []string }

// Kind implements Msg.
func (*AllocateResp) Kind() Kind { return KindAllocateResp }

// MarshalTo implements Msg.
func (m *AllocateResp) MarshalTo(w *Writer) {
	w.Uint32(uint32(len(m.Addrs)))
	for _, a := range m.Addrs {
		w.String(a)
	}
}

func (m *AllocateResp) unmarshal(r *Reader) {
	n := int(r.Uint32())
	if n > MaxSliceLen/8 {
		r.fail(ErrTooLarge)
		return
	}
	m.Addrs = make([]string, 0, n)
	for i := 0; i < n; i++ {
		m.Addrs = append(m.Addrs, r.String())
	}
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

// MarshalTo implements Msg.
func (m *DHTMultiPutReq) MarshalTo(w *Writer) {
	w.Uint32(uint32(len(m.Keys)))
	for i := range m.Keys {
		w.Bytes32(m.Keys[i])
		w.Bytes32(m.Values[i])
	}
}

func (m *DHTMultiPutReq) unmarshal(r *Reader) {
	n := int(r.Uint32())
	// Every pair carries two length prefixes, so the input bounds the
	// count and a hostile one cannot size the allocation below.
	if n > r.Remaining()/8 {
		r.fail(ErrTooLarge)
		return
	}
	pairs := make([][]byte, 2*n)
	m.Keys, m.Values = pairs[:n:n], pairs[n:]
	for i := 0; i < n; i++ {
		m.Keys[i] = r.Bytes32()
		m.Values[i] = r.Bytes32()
	}
}

// DHTMultiPutResp acknowledges DHTMultiPutReq.
type DHTMultiPutResp struct{}

// Kind implements Msg.
func (*DHTMultiPutResp) Kind() Kind { return KindDHTMultiPutResp }

// MarshalTo implements Msg.
func (m *DHTMultiPutResp) MarshalTo(*Writer) {}
func (m *DHTMultiPutResp) unmarshal(*Reader) {}

// DHTMultiGetReq fetches several keys in one round trip.
//
// A decoded DHTMultiGetReq's keys alias the frame body they were decoded
// from, like DHTMultiPutReq's: they are valid until the request's
// handler returns, which is as long as a lookup needs them.
type DHTMultiGetReq struct{ Keys [][]byte }

// Kind implements Msg.
func (*DHTMultiGetReq) Kind() Kind { return KindDHTMultiGetReq }

// MarshalTo implements Msg.
func (m *DHTMultiGetReq) MarshalTo(w *Writer) {
	w.Uint32(uint32(len(m.Keys)))
	for _, k := range m.Keys {
		w.Bytes32(k)
	}
}

func (m *DHTMultiGetReq) unmarshal(r *Reader) {
	n := int(r.Uint32())
	if n > MaxSliceLen/8 {
		r.fail(ErrTooLarge)
		return
	}
	m.Keys = make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		m.Keys = append(m.Keys, r.Bytes32())
	}
}

// DHTMultiGetResp answers DHTMultiGetReq; entries align with request keys.
type DHTMultiGetResp struct {
	Found  []bool
	Values [][]byte
}

// Kind implements Msg.
func (*DHTMultiGetResp) Kind() Kind { return KindDHTMultiGetResp }

// MarshalTo implements Msg.
func (m *DHTMultiGetResp) MarshalTo(w *Writer) {
	w.Uint32(uint32(len(m.Found)))
	for i := range m.Found {
		w.Bool(m.Found[i])
		w.Bytes32(m.Values[i])
	}
}

func (m *DHTMultiGetResp) unmarshal(r *Reader) {
	n := int(r.Uint32())
	if n > MaxSliceLen/8 {
		r.fail(ErrTooLarge)
		return
	}
	m.Found = make([]bool, 0, n)
	m.Values = make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		m.Found = append(m.Found, r.Bool())
		m.Values = append(m.Values, r.Bytes32Copy())
	}
}

// -------------------------------------------------------- version manager

// CreateBlobReq creates a blob with the given page size (a power of two).
type CreateBlobReq struct{ PageSize uint32 }

// Kind implements Msg.
func (*CreateBlobReq) Kind() Kind { return KindCreateBlobReq }

// MarshalTo implements Msg.
func (m *CreateBlobReq) MarshalTo(w *Writer) { w.Uint32(m.PageSize) }
func (m *CreateBlobReq) unmarshal(r *Reader) { m.PageSize = r.Uint32() }

// CreateBlobResp returns the globally unique id of the new blob, which is
// born with the published empty snapshot 0.
type CreateBlobResp struct{ Blob BlobID }

// Kind implements Msg.
func (*CreateBlobResp) Kind() Kind { return KindCreateBlobResp }

// MarshalTo implements Msg.
func (m *CreateBlobResp) MarshalTo(w *Writer) { w.Uint64(uint64(m.Blob)) }
func (m *CreateBlobResp) unmarshal(r *Reader) { m.Blob = BlobID(r.Uint64()) }

// BlobInfoReq fetches a blob's immutable attributes.
type BlobInfoReq struct{ Blob BlobID }

// Kind implements Msg.
func (*BlobInfoReq) Kind() Kind { return KindBlobInfoReq }

// MarshalTo implements Msg.
func (m *BlobInfoReq) MarshalTo(w *Writer) { w.Uint64(uint64(m.Blob)) }
func (m *BlobInfoReq) unmarshal(r *Reader) { m.Blob = BlobID(r.Uint64()) }

// BlobInfoResp carries a blob's page size and lineage chain (youngest
// entry first; used to resolve which namespace owns each version's tree
// nodes across BRANCH boundaries).
type BlobInfoResp struct {
	PageSize uint32
	Lineage  Lineage
}

// Kind implements Msg.
func (*BlobInfoResp) Kind() Kind { return KindBlobInfoResp }

// MarshalTo implements Msg.
func (m *BlobInfoResp) MarshalTo(w *Writer) {
	w.Uint32(m.PageSize)
	w.Uint32(uint32(len(m.Lineage)))
	for _, e := range m.Lineage {
		e.encode(w)
	}
}

func (m *BlobInfoResp) unmarshal(r *Reader) {
	m.PageSize = r.Uint32()
	n := int(r.Uint32())
	if n > MaxSliceLen/16 {
		r.fail(ErrTooLarge)
		return
	}
	m.Lineage = make(Lineage, 0, n)
	for i := 0; i < n; i++ {
		m.Lineage = append(m.Lineage, decodeLineageEntry(r))
	}
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

// MarshalTo implements Msg.
func (m *AssignReq) MarshalTo(w *Writer) {
	w.Uint64(uint64(m.Blob))
	w.Uint64(m.Offset)
	w.Uint64(m.Size)
	w.Bool(m.Append)
}

func (m *AssignReq) unmarshal(r *Reader) {
	m.Blob = BlobID(r.Uint64())
	m.Offset = r.Uint64()
	m.Size = r.Uint64()
	m.Append = r.Bool()
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

// MarshalTo implements Msg.
func (m *AssignResp) MarshalTo(w *Writer) {
	w.Uint64(m.Version)
	w.Uint64(m.Offset)
	w.Uint64(m.NewSize)
	w.Uint64(m.PrevSize)
	w.Uint64(m.Published)
	w.Uint64(m.PublishedSize)
	w.Uint32(uint32(len(m.InFlight)))
	for _, u := range m.InFlight {
		u.encode(w)
	}
}

func (m *AssignResp) unmarshal(r *Reader) {
	m.Version = r.Uint64()
	m.Offset = r.Uint64()
	m.NewSize = r.Uint64()
	m.PrevSize = r.Uint64()
	m.Published = r.Uint64()
	m.PublishedSize = r.Uint64()
	n := int(r.Uint32())
	if n > MaxSliceLen/24 {
		r.fail(ErrTooLarge)
		return
	}
	m.InFlight = make([]UpdateDesc, 0, n)
	for i := 0; i < n; i++ {
		m.InFlight = append(m.InFlight, decodeUpdateDesc(r))
	}
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

// MarshalTo implements Msg.
func (m *CompleteReq) MarshalTo(w *Writer) {
	w.Uint64(uint64(m.Blob))
	w.Uint64(m.Version)
}

func (m *CompleteReq) unmarshal(r *Reader) {
	m.Blob = BlobID(r.Uint64())
	m.Version = r.Uint64()
}

// CompleteResp acknowledges CompleteReq.
type CompleteResp struct{}

// Kind implements Msg.
func (*CompleteResp) Kind() Kind { return KindCompleteResp }

// MarshalTo implements Msg.
func (m *CompleteResp) MarshalTo(*Writer) {}
func (m *CompleteResp) unmarshal(*Reader) {}

// AbortReq withdraws an assigned but unpublished update so later versions
// are not blocked behind a writer that failed.
type AbortReq struct {
	Blob    BlobID
	Version Version
}

// Kind implements Msg.
func (*AbortReq) Kind() Kind { return KindAbortReq }

// MarshalTo implements Msg.
func (m *AbortReq) MarshalTo(w *Writer) {
	w.Uint64(uint64(m.Blob))
	w.Uint64(m.Version)
}

func (m *AbortReq) unmarshal(r *Reader) {
	m.Blob = BlobID(r.Uint64())
	m.Version = r.Uint64()
}

// AbortResp acknowledges AbortReq.
type AbortResp struct{}

// Kind implements Msg.
func (*AbortResp) Kind() Kind { return KindAbortResp }

// MarshalTo implements Msg.
func (m *AbortResp) MarshalTo(*Writer) {}
func (m *AbortResp) unmarshal(*Reader) {}

// RecentReq implements GET_RECENT: a recently published version of a blob.
type RecentReq struct{ Blob BlobID }

// Kind implements Msg.
func (*RecentReq) Kind() Kind { return KindRecentReq }

// MarshalTo implements Msg.
func (m *RecentReq) MarshalTo(w *Writer) { w.Uint64(uint64(m.Blob)) }
func (m *RecentReq) unmarshal(r *Reader) { m.Blob = BlobID(r.Uint64()) }

// RecentResp returns the latest published version and its size. The
// guarantee is Version >= every version published before the call (§2.1).
type RecentResp struct {
	Version Version
	Size    uint64
}

// Kind implements Msg.
func (*RecentResp) Kind() Kind { return KindRecentResp }

// MarshalTo implements Msg.
func (m *RecentResp) MarshalTo(w *Writer) {
	w.Uint64(m.Version)
	w.Uint64(m.Size)
}

func (m *RecentResp) unmarshal(r *Reader) {
	m.Version = r.Uint64()
	m.Size = r.Uint64()
}

// SizeReq implements GET_SIZE for a published snapshot version.
type SizeReq struct {
	Blob    BlobID
	Version Version
}

// Kind implements Msg.
func (*SizeReq) Kind() Kind { return KindSizeReq }

// MarshalTo implements Msg.
func (m *SizeReq) MarshalTo(w *Writer) {
	w.Uint64(uint64(m.Blob))
	w.Uint64(m.Version)
}

func (m *SizeReq) unmarshal(r *Reader) {
	m.Blob = BlobID(r.Uint64())
	m.Version = r.Uint64()
}

// SizeResp returns the snapshot's size in bytes.
type SizeResp struct{ Size uint64 }

// Kind implements Msg.
func (*SizeResp) Kind() Kind { return KindSizeResp }

// MarshalTo implements Msg.
func (m *SizeResp) MarshalTo(w *Writer) { w.Uint64(m.Size) }
func (m *SizeResp) unmarshal(r *Reader) { m.Size = r.Uint64() }

// SyncReq implements SYNC: the response is withheld until Version of Blob
// is published.
type SyncReq struct {
	Blob    BlobID
	Version Version
}

// Kind implements Msg.
func (*SyncReq) Kind() Kind { return KindSyncReq }

// MarshalTo implements Msg.
func (m *SyncReq) MarshalTo(w *Writer) {
	w.Uint64(uint64(m.Blob))
	w.Uint64(m.Version)
}

func (m *SyncReq) unmarshal(r *Reader) {
	m.Blob = BlobID(r.Uint64())
	m.Version = r.Uint64()
}

// SyncResp is sent once the awaited version is published.
type SyncResp struct{}

// Kind implements Msg.
func (*SyncResp) Kind() Kind { return KindSyncResp }

// MarshalTo implements Msg.
func (m *SyncResp) MarshalTo(*Writer) {}
func (m *SyncResp) unmarshal(*Reader) {}

// BranchReq implements BRANCH: virtually duplicate Blob at published
// Version into a new blob.
type BranchReq struct {
	Blob    BlobID
	Version Version
}

// Kind implements Msg.
func (*BranchReq) Kind() Kind { return KindBranchReq }

// MarshalTo implements Msg.
func (m *BranchReq) MarshalTo(w *Writer) {
	w.Uint64(uint64(m.Blob))
	w.Uint64(m.Version)
}

func (m *BranchReq) unmarshal(r *Reader) {
	m.Blob = BlobID(r.Uint64())
	m.Version = r.Uint64()
}

// BranchResp returns the id of the new branched blob.
type BranchResp struct{ NewBlob BlobID }

// Kind implements Msg.
func (*BranchResp) Kind() Kind { return KindBranchResp }

// MarshalTo implements Msg.
func (m *BranchResp) MarshalTo(w *Writer) { w.Uint64(uint64(m.NewBlob)) }
func (m *BranchResp) unmarshal(r *Reader) { m.NewBlob = BlobID(r.Uint64()) }

// ErrorResp may answer any request; it carries a stable error code and a
// human-readable message.
type ErrorResp struct {
	Code ErrCode
	Msg  string
}

// Kind implements Msg.
func (*ErrorResp) Kind() Kind { return KindErrorResp }

// MarshalTo implements Msg.
func (m *ErrorResp) MarshalTo(w *Writer) {
	w.Uint16(uint16(m.Code))
	w.String(m.Msg)
}

func (m *ErrorResp) unmarshal(r *Reader) {
	m.Code = ErrCode(r.Uint16())
	m.Msg = r.String()
}

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

// MarshalTo implements Msg.
func (m *DeletePagesReq) MarshalTo(w *Writer) {
	w.Uint32(uint32(len(m.Pages)))
	for i := range m.Pages {
		w.Raw(m.Pages[i][:])
	}
}

func (m *DeletePagesReq) unmarshal(r *Reader) {
	n := int(r.Uint32())
	if n > MaxSliceLen/16 {
		r.fail(ErrTooLarge)
		return
	}
	m.Pages = make([]PageID, n)
	for i := 0; i < n; i++ {
		copy(m.Pages[i][:], r.Raw(16))
	}
}

// DeletePagesResp acknowledges DeletePagesReq: every requested page is
// now absent (deleted, or never stored here).
type DeletePagesResp struct{}

// Kind implements Msg.
func (*DeletePagesResp) Kind() Kind { return KindDeletePagesResp }

// MarshalTo implements Msg.
func (m *DeletePagesResp) MarshalTo(*Writer) {}
func (m *DeletePagesResp) unmarshal(*Reader) {}

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

// MarshalTo implements Msg.
func (m *ExpireReq) MarshalTo(w *Writer) {
	w.Uint64(uint64(m.Blob))
	w.Uint64(m.UpTo)
}

func (m *ExpireReq) unmarshal(r *Reader) {
	m.Blob = BlobID(r.Uint64())
	m.UpTo = r.Uint64()
}

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

// MarshalTo implements Msg.
func (m *ExpireResp) MarshalTo(w *Writer) {
	w.Uint64(m.Floor)
	w.Uint32(uint32(len(m.Expired)))
	for _, v := range m.Expired {
		w.Uint64(v)
	}
}

func (m *ExpireResp) unmarshal(r *Reader) {
	m.Floor = r.Uint64()
	n := int(r.Uint32())
	if n > MaxSliceLen/8 {
		r.fail(ErrTooLarge)
		return
	}
	m.Expired = make([]Version, 0, n)
	for i := 0; i < n; i++ {
		m.Expired = append(m.Expired, r.Uint64())
	}
}

// VersionInfo pairs a snapshot version with its byte size, enough for a
// GC walker to construct the snapshot's tree root.
type VersionInfo struct {
	Version Version
	Size    uint64
}

func (v VersionInfo) encode(w *Writer) {
	w.Uint64(v.Version)
	w.Uint64(v.Size)
}

func decodeVersionInfo(r *Reader) VersionInfo {
	return VersionInfo{Version: r.Uint64(), Size: r.Uint64()}
}

// GCInfoReq asks the version manager what a garbage collection of Blob
// should walk. It is read-only and idempotent, so a collector that
// crashed mid-sweep can re-fetch the same plan and resume.
type GCInfoReq struct{ Blob BlobID }

// Kind implements Msg.
func (*GCInfoReq) Kind() Kind { return KindGCInfoReq }

// MarshalTo implements Msg.
func (m *GCInfoReq) MarshalTo(w *Writer) { w.Uint64(uint64(m.Blob)) }
func (m *GCInfoReq) unmarshal(r *Reader) { m.Blob = BlobID(r.Uint64()) }

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

// MarshalTo implements Msg.
func (m *GCInfoResp) MarshalTo(w *Writer) {
	w.Uint64(m.OwnMin)
	w.Uint64(m.Floor)
	m.Retained.encode(w)
	w.Uint32(uint32(len(m.Expired)))
	for _, v := range m.Expired {
		v.encode(w)
	}
}

func (m *GCInfoResp) unmarshal(r *Reader) {
	m.OwnMin = r.Uint64()
	m.Floor = r.Uint64()
	m.Retained = decodeVersionInfo(r)
	n := int(r.Uint32())
	if n > MaxSliceLen/16 {
		r.fail(ErrTooLarge)
		return
	}
	m.Expired = make([]VersionInfo, 0, n)
	for i := 0; i < n; i++ {
		m.Expired = append(m.Expired, decodeVersionInfo(r))
	}
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

// MarshalTo implements Msg.
func (m *DHTDeleteReq) MarshalTo(w *Writer) {
	w.Uint32(uint32(len(m.Keys)))
	for _, k := range m.Keys {
		w.Bytes32(k)
	}
}

func (m *DHTDeleteReq) unmarshal(r *Reader) {
	n := int(r.Uint32())
	if n > MaxSliceLen/8 {
		r.fail(ErrTooLarge)
		return
	}
	m.Keys = make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		m.Keys = append(m.Keys, r.Bytes32Copy())
	}
}

// DHTDeleteResp acknowledges DHTDeleteReq: every requested key is now
// absent on this node. Deleted counts the keys that actually existed
// here, so collectors can report how much metadata one sweep removed.
type DHTDeleteResp struct{ Deleted uint64 }

// Kind implements Msg.
func (*DHTDeleteResp) Kind() Kind { return KindDHTDeleteResp }

// MarshalTo implements Msg.
func (m *DHTDeleteResp) MarshalTo(w *Writer) { w.Uint64(m.Deleted) }
func (m *DHTDeleteResp) unmarshal(r *Reader) { m.Deleted = r.Uint64() }

// PageRange addresses Length bytes starting at Offset within one page;
// Length == WholePage requests the full page contents, like GetPageReq.
type PageRange struct {
	Page   PageID
	Offset uint32
	Length uint32
}

// MaxGetPagesRanges and MaxGetPagesBytes bound one GetPagesReq: at most
// MaxGetPagesRanges entries per request, and at most MaxGetPagesBytes of
// cumulative page payload in the response. A provider builds the whole
// batch answer in memory before replying, so without the caps one
// request could pin an unbounded buffer server-side. Providers reject
// requests beyond either cap; clients split larger scans into multiple
// batches. A single range may still exceed the byte cap — one whole
// page is always fetchable, exactly as with GetPageReq.
const (
	MaxGetPagesRanges = 4096
	MaxGetPagesBytes  = 64 << 20
)

// GetPagesReq reads many page ranges from one provider in a single round
// trip — the coalesced form of GetPageReq that sequential scans use so a
// contiguous read costs few large requests instead of one RPC per page.
// Requests must respect MaxGetPagesRanges and MaxGetPagesBytes.
type GetPagesReq struct{ Ranges []PageRange }

// Kind implements Msg.
func (*GetPagesReq) Kind() Kind { return KindGetPagesReq }

// MarshalTo implements Msg.
func (m *GetPagesReq) MarshalTo(w *Writer) {
	w.Uint32(uint32(len(m.Ranges)))
	for _, pr := range m.Ranges {
		w.Raw(pr.Page[:])
		w.Uint32(pr.Offset)
		w.Uint32(pr.Length)
	}
}

func (m *GetPagesReq) unmarshal(r *Reader) {
	n := int(r.Uint32())
	if n > MaxSliceLen/24 {
		r.fail(ErrTooLarge)
		return
	}
	m.Ranges = make([]PageRange, 0, n)
	for i := 0; i < n; i++ {
		var pr PageRange
		copy(pr.Page[:], r.Raw(16))
		pr.Offset = r.Uint32()
		pr.Length = r.Uint32()
		m.Ranges = append(m.Ranges, pr)
	}
}

// GetPagesResp answers GetPagesReq entry-for-entry: Found[i] says
// whether the provider holds Ranges[i].Page, and Data[i] carries its
// bytes (empty when absent). A missing page is per-entry data, not an
// error, so one cold replica cannot fail a whole batch. Decoded, each
// Data[i] is a pooled buffer (Reader.Bytes32Pooled), nil when empty.
type GetPagesResp struct {
	Found []bool
	Data  [][]byte
}

// Kind implements Msg.
func (*GetPagesResp) Kind() Kind { return KindGetPagesResp }

// MarshalTo implements Msg.
func (m *GetPagesResp) MarshalTo(w *Writer) {
	w.Uint32(uint32(len(m.Found)))
	for i, f := range m.Found {
		w.Bool(f)
		w.Bytes32(m.Data[i])
	}
}

func (m *GetPagesResp) unmarshal(r *Reader) {
	n := int(r.Uint32())
	if n > MaxSliceLen/8 {
		r.fail(ErrTooLarge)
		return
	}
	m.Found = make([]bool, 0, n)
	m.Data = make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		m.Found = append(m.Found, r.Bool())
		m.Data = append(m.Data, r.Bytes32Pooled())
	}
}

func (m *GetPagesResp) bodySize() int {
	n := 4 + 5*len(m.Found)
	for i := range m.Found {
		n += len(m.Data[i])
	}
	return n
}
