package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"blobseer/internal/bufpool"
)

func roundTrip(t *testing.T, m Msg) Msg {
	t.Helper()
	out, err := Decode(m.Kind(), AppendMsg(nil, m))
	if err != nil {
		t.Fatalf("Decode(%v): %v", m.Kind(), err)
	}
	return out
}

func TestRoundTripAllMessages(t *testing.T) {
	pid := PageID{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	msgs := []Msg{
		&PutPageReq{Page: pid, Data: []byte("hello")},
		&PutPageResp{},
		&RegisterReq{Addr: "node-7:4400", Weight: 3},
		&RegisterResp{ID: 11},
		&HeartbeatReq{ID: 11, Pages: 5, Bytes: 500},
		&HeartbeatResp{Known: true},
		&AllocateReq{N: 4},
		&AllocateResp{Addrs: []string{"a:1", "b:2", "c:3"}},
		&DHTMultiPutReq{Keys: [][]byte{[]byte("k1"), []byte("k2")}, Values: [][]byte{[]byte("v1"), []byte("v2")}},
		&DHTMultiPutResp{},
		&DHTMultiGetReq{Keys: [][]byte{[]byte("k1")}},
		&DHTMultiGetResp{Found: []bool{true, false}, Values: [][]byte{[]byte("v1"), nil}},
		&CreateBlobReq{PageSize: 65536},
		&CreateBlobResp{Blob: 12},
		&BlobInfoReq{Blob: 12},
		&BlobInfoResp{PageSize: 4096, Lineage: Lineage{{Blob: 12, MinVersion: 6}, {Blob: 3, MinVersion: 0}}},
		&AssignReq{Blob: 12, Offset: 100, Size: 200, Append: true},
		&AssignResp{Version: 9, Offset: 64, NewSize: 1024, Published: 8, PublishedSize: 960,
			InFlight: []UpdateDesc{{Version: 7, Offset: 0, Size: 64}}},
		&CompleteReq{Blob: 12, Version: 9},
		&CompleteResp{},
		&AbortReq{Blob: 12, Version: 9},
		&AbortResp{},
		&RecentReq{Blob: 12},
		&RecentResp{Version: 8, Size: 960},
		&SizeReq{Blob: 12, Version: 8},
		&SizeResp{Size: 960},
		&SyncReq{Blob: 12, Version: 9},
		&SyncResp{},
		&BranchReq{Blob: 12, Version: 8},
		&BranchResp{NewBlob: 13},
		&ErrorResp{Code: CodeNotPublished, Msg: "v9 pending"},
	}
	for _, m := range msgs {
		got := roundTrip(t, m)
		if !reflect.DeepEqual(normalize(got), normalize(m)) {
			t.Errorf("%v: round trip mismatch:\n got %#v\nwant %#v", m.Kind(), got, m)
		}
	}
}

// normalize maps nil and empty byte slices to a canonical form so that
// DeepEqual treats a decoded empty slice as equal to an encoded nil.
func normalize(m Msg) Msg {
	switch v := m.(type) {
	case *DHTMultiGetResp:
		for i := range v.Values {
			if len(v.Values[i]) == 0 {
				v.Values[i] = nil
			}
		}
	}
	return m
}

// retiredKinds lists the kinds no process sends any more, each with the
// body its last encoder wrote: a peer of an older build may still send
// one, and it must be refused like an unknown kind.
var retiredKinds = []retiredKind{
	{KindPingReq, body(uint64(7))},
	{KindPingResp, body(uint64(7))},
	{KindGetPageReq, body(make([]byte, 16), uint32(64), WholePage)},
	{KindGetPageResp, body("page")},
	{KindHasPageReq, body(make([]byte, 16))},
	{KindHasPageResp, body(true)},
	{KindProviderStatsReq, body()},
	{KindProviderStatsResp, body(uint64(3), uint64(1<<16))},
	{KindListProvidersReq, body()},
	{KindListProvidersResp, body(uint32(1), "a:1", uint64(0), uint64(0))},
	{KindDHTPutReq, body("k", "v")},
	{KindDHTPutResp, body()},
	{KindDHTGetReq, body("k")},
	{KindDHTGetResp, body(true, "v")},
	{KindDHTStatsReq, body()},
	{KindDHTStatsResp, body(uint64(9), uint64(1<<10))},
}

type retiredKind struct {
	kind Kind
	body []byte
}

// body encodes fields one after another: a string length-prefixed, a
// []byte raw, the rest fixed width.
func body(fields ...any) []byte {
	c := EncodeTo(nil)
	for _, f := range fields {
		switch v := f.(type) {
		case bool:
			c.Bool(&v)
		case uint32:
			c.Uint32(&v)
		case uint64:
			c.Uint64(&v)
		case string:
			c.String(&v)
		case []byte:
			c.Fixed(v)
		default:
			panic(fmt.Sprintf("body: field of type %T", f))
		}
	}
	return c.Encoded()
}

func TestRetiredKindsUndecodable(t *testing.T) {
	for _, r := range retiredKinds {
		if kindTable[r.kind].name == "" {
			t.Errorf("retired kind %d lost its name", r.kind)
		}
		if m := New(r.kind); m != nil {
			t.Errorf("New(%v) = %T, want nil for a retired kind", r.kind, m)
		}
		if _, err := Decode(r.kind, r.body); err == nil {
			t.Errorf("Decode(%v) of its last encoding succeeded", r.kind)
		}
	}
}

func TestEveryKindConstructible(t *testing.T) {
	retired := make(map[Kind]bool)
	for _, r := range retiredKinds {
		retired[r.kind] = true
	}
	for k := KindInvalid + 1; k < kindMax; k++ {
		if k.String() != kindTable[k].name {
			t.Fatalf("kind %d prints as %q, declared as %q", k, k.String(), kindTable[k].name)
		}
		if retired[k] {
			continue
		}
		if kindTable[k].name == "" || kindTable[k].new == nil {
			t.Fatalf("kind %d has no name or no constructor in kindTable: %+v", k, kindTable[k])
		}
		m := New(k)
		if m == nil {
			t.Fatalf("New(%v) returned nil", k)
		}
		if m.Kind() != k {
			t.Fatalf("New(%v).Kind() = %v", k, m.Kind())
		}
	}
	if New(kindMax) != nil {
		t.Fatal("New(kindMax) should be nil")
	}
	if New(KindInvalid) != nil {
		t.Fatal("New(KindInvalid) should be nil")
	}
	if got := kindMax.String(); got != fmt.Sprintf("Kind(%d)", uint8(kindMax)) {
		t.Fatalf("kindMax prints as %q", got)
	}
}

func TestDecodeRejectsTrailingBytes(t *testing.T) {
	junk := append(AppendMsg(nil, &SizeResp{Size: 1}), 0xFF)
	if _, err := Decode(KindSizeResp, junk); err == nil {
		t.Fatal("expected trailing-bytes error")
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	full := AppendMsg(nil, &PutPageReq{Page: PageID{1}, Data: []byte("abcdef")})
	for cut := 0; cut < len(full); cut++ {
		if _, err := Decode(KindPutPageReq, full[:cut]); err == nil {
			t.Fatalf("truncation at %d bytes not detected", cut)
		}
	}
}

func TestDecodeRejectsHugeLengthPrefix(t *testing.T) {
	// One key, whose length prefix claims 4 GiB.
	if _, err := Decode(KindDHTDeleteReq, body(uint32(1), uint32(math.MaxUint32))); !errors.Is(err, ErrTooLarge) {
		t.Fatal("expected too-large error")
	}
}

// fields has one field of each kind a layout can name.
type fields struct {
	u8     uint8
	t, f   bool
	u16    uint16
	u32    uint32
	u64    uint64
	i64    int64
	fixed  [3]byte
	key    string
	bytes  []byte
	alias  []byte
	pooled []byte
	str    string
	list   []uint64
}

func (v *fields) code(c *Codec) {
	c.Uint8(&v.u8)
	c.Bool(&v.t)
	c.Bool(&v.f)
	c.Uint16(&v.u16)
	c.Uint32(&v.u32)
	c.Uint64(&v.u64)
	c.Int64(&v.i64)
	c.Fixed(v.fixed[:])
	c.FixedString(&v.key, 2)
	c.Bytes(&v.bytes)
	c.BytesAlias(&v.alias)
	c.BytesPooled(&v.pooled)
	c.String(&v.str)
	for i := range Slice(c, &v.list, 8) {
		c.Uint64(&v.list[i])
	}
}

// TestCodecRoundTrip pins every field method's encoding, byte for byte,
// and that one layout decodes what it encoded.
func TestCodecRoundTrip(t *testing.T) {
	in := fields{
		u8: 7, t: true, u16: 0xBEEF, u32: 0xDEADBEEF, u64: 0x0102030405060708, i64: -2,
		fixed: [3]byte{9, 9, 9}, key: "ky", bytes: []byte("xy"), alias: []byte("al"),
		pooled: []byte("p"), str: "hello", list: []uint64{1, 2},
	}
	enc := EncodeTo(nil)
	in.code(&enc)
	want := []byte{
		7, 1, 0, 0xEF, 0xBE, 0xEF, 0xBE, 0xAD, 0xDE, 8, 7, 6, 5, 4, 3, 2, 1,
		0xFE, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 9, 9, 9, 'k', 'y',
		2, 0, 0, 0, 'x', 'y', 2, 0, 0, 0, 'a', 'l', 1, 0, 0, 0, 'p',
		5, 0, 0, 0, 'h', 'e', 'l', 'l', 'o',
		2, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0,
	}
	if !bytes.Equal(enc.Encoded(), want) {
		t.Fatalf("encoded\n%x\nwant\n%x", enc.Encoded(), want)
	}
	var out fields
	dec := DecodeFrom(want)
	out.code(&dec)
	if err := dec.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("decoded %+v, want %+v", out, in)
	}
	// Only the aliasing field shares the input's storage.
	clear(want)
	if string(out.bytes) != "xy" || string(out.pooled) != "p" || string(out.alias) == "al" {
		t.Fatalf("after clearing the input: bytes %q, pooled %q, alias %q", out.bytes, out.pooled, out.alias)
	}
}

// TestCodecErrorSticky decodes past the end of the input: the first
// error sticks, every later field is left alone, and nothing panics.
func TestCodecErrorSticky(t *testing.T) {
	c := DecodeFrom([]byte{1, 0, 0, 0, 2})
	var u64 uint64
	c.Uint64(&u64) // fails: 5 bytes
	if !errors.Is(c.Err(), ErrTruncated) {
		t.Fatalf("Err = %v, want ErrTruncated", c.Err())
	}
	u32, s, p := uint32(3), "kept", []byte("kept")
	c.Uint32(&u32)
	c.String(&s)
	c.Bytes(&p)
	if n := c.Len(5, 1); n != 0 {
		t.Fatalf("Len after an error = %d, want 0", n)
	}
	if u64 != 0 || u32 != 3 || s != "kept" || string(p) != "kept" {
		t.Fatalf("fields written after the error: %d %d %q %q", u64, u32, s, p)
	}
	if !errors.Is(c.Finish(), ErrTruncated) {
		t.Fatalf("Finish = %v, want the first error", c.Finish())
	}
}

// TestLenBoundedByInput pins Len's rule: a count whose entries could
// not fit in the remaining input is refused before anything is sized
// by it.
func TestLenBoundedByInput(t *testing.T) {
	for _, tc := range []struct {
		count, min, rest int
		ok               bool
	}{
		{0, 8, 0, true}, {2, 8, 16, true}, {3, 8, 16, false}, {1 << 20, 1, 100, false},
	} {
		c := DecodeFrom(append(body(uint32(tc.count)), make([]byte, tc.rest)...))
		n := c.Len(0, tc.min)
		if ok := c.Err() == nil; ok != tc.ok || ok && n != tc.count {
			t.Errorf("%+v: Len = %d, err %v", tc, n, c.Err())
		}
		if !tc.ok && (n != 0 || !errors.Is(c.Err(), ErrTooLarge)) {
			t.Errorf("%+v: refused count decoded as %d, err %v", tc, n, c.Err())
		}
	}
}

func TestPageIDGenUnique(t *testing.T) {
	g := NewPageIDGen()
	seen := make(map[PageID]bool)
	for i := 0; i < 10000; i++ {
		id := g.Next()
		if id.IsZero() {
			t.Fatal("generated zero id")
		}
		if seen[id] {
			t.Fatalf("duplicate id %v", id)
		}
		seen[id] = true
	}
	g2 := NewPageIDGen()
	if g2.Next() == g.Next() {
		t.Fatal("two generators collided immediately")
	}
}

func TestLineageOwner(t *testing.T) {
	// Blob 5 branched from 3 at version 7 (so 5 owns versions >= 8);
	// blob 3 branched from 1 at version 2 (3 owns versions >= 3).
	l := Lineage{{Blob: 5, MinVersion: 8}, {Blob: 3, MinVersion: 3}, {Blob: 1, MinVersion: 0}}
	cases := []struct {
		v    Version
		want BlobID
	}{
		{0, 1}, {2, 1}, {3, 3}, {7, 3}, {8, 5}, {100, 5},
	}
	for _, c := range cases {
		if got := l.Owner(c.v); got != c.want {
			t.Errorf("Owner(%d) = %v, want %v", c.v, got, c.want)
		}
	}
	if (Lineage{}).Owner(3) != 0 {
		t.Error("empty lineage should resolve to 0")
	}
}

func TestQuickAssignRespRoundTrip(t *testing.T) {
	f := func(ver, off, sz, pub, psz uint64, inflight []UpdateDesc) bool {
		in := &AssignResp{Version: ver, Offset: off, NewSize: sz, Published: pub,
			PublishedSize: psz, InFlight: inflight}
		out, err := Decode(KindAssignReq+1, AppendMsg(nil, in))
		if err != nil {
			return false
		}
		got := out.(*AssignResp)
		if len(got.InFlight) == 0 {
			got.InFlight = nil
		}
		if len(in.InFlight) == 0 {
			in.InFlight = nil
		}
		return reflect.DeepEqual(got, in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDHTPairsRoundTrip(t *testing.T) {
	f := func(keys [][]byte) bool {
		vals := make([][]byte, len(keys))
		for i := range keys {
			vals[i] = append([]byte("v-"), keys[i]...)
		}
		in := &DHTMultiPutReq{Keys: keys, Values: vals}
		out, err := Decode(KindDHTMultiPutReq, AppendMsg(nil, in))
		if err != nil {
			return false
		}
		got := out.(*DHTMultiPutReq)
		if len(got.Keys) != len(keys) {
			return false
		}
		for i := range keys {
			if !bytes.Equal(got.Keys[i], keys[i]) || !bytes.Equal(got.Values[i], vals[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestErrorHelpers(t *testing.T) {
	err := NewError(CodeNotFound, "blob %d", 7)
	if !IsNotFound(err) {
		t.Error("IsNotFound failed")
	}
	if IsNotPublished(err) || IsOutOfBounds(err) {
		t.Error("wrong classification")
	}
	if CodeOf(err) != CodeNotFound {
		t.Error("CodeOf failed")
	}
	if CodeOf(bytes.ErrTooLarge) != CodeUnknown {
		t.Error("foreign errors should map to CodeUnknown")
	}
	if err.Error() == "" || (&Error{Code: CodeAborted}).Error() == "" {
		t.Error("empty error strings")
	}
}

// TestPooledPagesNeverAliasBody decodes page-carrying responses and
// then overwrites the body they were decoded from, as the rpc read loop
// does when it recycles the frame: every decoded page must keep its
// bytes. An absent page and an empty page decode as nil, never as an
// empty slice of the body.
func TestPooledPagesNeverAliasBody(t *testing.T) {
	pages := [][]byte{
		bytes.Repeat([]byte{0x11}, 64<<10),
		nil,
		bytes.Repeat([]byte{0x33}, 700),
		{0x44},
		{},
	}
	body := AppendMsg(nil, &GetPagesResp{Found: []bool{true, false, true, true, true}, Data: pages})
	m, err := Decode(KindGetPagesResp, body)
	if err != nil {
		t.Fatal(err)
	}
	clear(body)
	got := m.(*GetPagesResp)
	for i, want := range pages {
		if !bytes.Equal(got.Data[i], want) {
			t.Fatalf("page %d changed with the body it was decoded from", i)
		}
	}
	if got.Found[1] || got.Data[1] != nil {
		t.Fatalf("absent page decoded as found=%v data=%#v, want false, nil", got.Found[1], got.Data[1])
	}
	if !got.Found[4] || got.Data[4] != nil {
		t.Fatalf("empty page decoded as found=%v data=%#v, want true, nil", got.Found[4], got.Data[4])
	}
}

// TestBodySizeMatchesEncoding pins BodySize, which restates the layout
// of the page-carrying kinds by hand, to what they really marshal to:
// an under-count brings buffer regrowth back, an over-count could refuse
// a legal frame.
func TestBodySizeMatchesEncoding(t *testing.T) {
	page := bytes.Repeat([]byte{0xA5}, 4096)
	for i, m := range []Msg{
		&PutPageReq{},
		&PutPageReq{Page: PageID{1, 2, 3}, Data: page},
		&GetPagesResp{},
		&GetPagesResp{Found: []bool{false}, Data: [][]byte{nil}},
		&GetPagesResp{Found: []bool{true}, Data: [][]byte{page}},
		&GetPagesResp{
			Found: []bool{true, false, true, true},
			Data:  [][]byte{page, nil, {}, page[:17]},
		},
	} {
		if got, want := BodySize(m), len(AppendMsg(nil, m)); got != want {
			t.Errorf("case %d, %v: BodySize %d, encodes to %d bytes", i, m.Kind(), got, want)
		}
	}
	// Every other kind sizes by growing.
	if got := BodySize(&SizeResp{Size: 7}); got != 0 {
		t.Errorf("BodySize(SizeResp) = %d, want 0", got)
	}
}

// countedMsgs holds one populated message of each kind whose layout
// has a count.
func countedMsgs() []Msg {
	pid := PageID{0xa, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 0xb}
	return []Msg{
		&AllocateResp{Addrs: []string{"a:1", "b:2", "c:3"}},
		&DHTMultiPutReq{Keys: [][]byte{[]byte("k1"), []byte("k2")}, Values: [][]byte{[]byte("v1"), {0xff}}},
		&DHTMultiGetReq{Keys: [][]byte{[]byte("k1"), []byte("k2")}},
		&DHTMultiGetResp{Found: []bool{true, false}, Values: [][]byte{[]byte("v1"), {}}},
		&BlobInfoResp{PageSize: 4096, Lineage: Lineage{{Blob: 3, MinVersion: 2}, {Blob: 1, MinVersion: 0}}},
		&AssignResp{Version: 4, Offset: 8192, NewSize: 16384, InFlight: []UpdateDesc{{Version: 2, Size: 4096}, {Version: 3, Offset: 4096, Size: 4096}}},
		&DeletePagesReq{Pages: []PageID{pid, {1}}},
		&ExpireResp{Floor: 3, Expired: []Version{1, 2}},
		&GCInfoResp{OwnMin: 1, Floor: 3, Retained: VersionInfo{Version: 3, Size: 8192}, Expired: []VersionInfo{{Version: 1, Size: 4096}, {Version: 2}}},
		&DHTDeleteReq{Keys: [][]byte{[]byte("node/key"), {0xff}}},
		&GetPagesReq{Ranges: []PageRange{{Page: pid, Length: WholePage}, {Page: PageID{1}, Offset: 128, Length: 64}}},
		&GetPagesResp{Found: []bool{true, false}, Data: [][]byte{{0xbe, 0xef}, {}}},
	}
}

// TestDecodeCountsBoundedByInput overwrites each 4-byte window of each
// counted message's encoding with 1<<20 — wherever a count or a length
// prefix sits, a hostile one — and decodes it with the collector held
// off: no decode may allocate anywhere near what the count claims,
// however it ends.
func TestDecodeCountsBoundedByInput(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, m := range countedMsgs() {
		enc := AppendMsg(nil, m)
		for off := 0; off+4 <= len(enc); off++ {
			p := slices.Clone(enc)
			binary.LittleEndian.PutUint32(p[off:], 1<<20)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			got, err := Decode(m.Kind(), p)
			runtime.ReadMemStats(&after)
			if r, ok := got.(*GetPagesResp); ok && err == nil {
				for _, d := range r.Data {
					bufpool.PutBytes(d)
				}
			}
			if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
				t.Errorf("%v with 1<<20 at offset %d: decode allocated %d bytes (err %v)", m.Kind(), off, n, err)
			}
		}
	}
}

// TestConcurrentEncodeIsReadOnly encodes the same messages from several
// goroutines at once: encoding must only read a message, and under
// -race a field method that stores through its pointer while encoding
// is a reported race.
func TestConcurrentEncodeIsReadOnly(t *testing.T) {
	msgs := append(countedMsgs(),
		&AssignReq{Blob: 3, Size: 8192, Append: true},
		&HeartbeatResp{Known: true})
	want := make([][]byte, len(msgs))
	for i, m := range msgs {
		want[i] = AppendMsg(nil, m)
	}
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, m := range msgs {
				if got := AppendMsg(nil, m); !bytes.Equal(got, want[i]) {
					t.Errorf("%v encoded differently under concurrency", m.Kind())
				}
			}
		}()
	}
	wg.Wait()
}
