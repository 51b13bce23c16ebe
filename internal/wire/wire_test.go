package wire

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, m Msg) Msg {
	t.Helper()
	w := NewWriter(64)
	m.MarshalTo(w)
	out, err := Decode(m.Kind(), w.Bytes())
	if err != nil {
		t.Fatalf("Decode(%v): %v", m.Kind(), err)
	}
	return out
}

func TestRoundTripAllMessages(t *testing.T) {
	pid := PageID{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	msgs := []Msg{
		&PingReq{Nonce: 42},
		&PingResp{Nonce: 42},
		&PutPageReq{Page: pid, Data: []byte("hello")},
		&PutPageResp{},
		&GetPageReq{Page: pid, Offset: 7, Length: WholePage},
		&GetPageResp{Data: []byte{0, 1, 2}},
		&HasPageReq{Page: pid},
		&HasPageResp{Found: true},
		&ProviderStatsReq{},
		&ProviderStatsResp{Pages: 9, Bytes: 1 << 40},
		&RegisterReq{Addr: "node-7:4400", Weight: 3},
		&RegisterResp{ID: 11},
		&HeartbeatReq{ID: 11, Pages: 5, Bytes: 500},
		&HeartbeatResp{Known: true},
		&AllocateReq{N: 4},
		&AllocateResp{Addrs: []string{"a:1", "b:2", "c:3"}},
		&ListProvidersReq{},
		&ListProvidersResp{Providers: []ProviderInfo{{Addr: "a:1", Pages: 1, Bytes: 2}}},
		&DHTPutReq{Key: []byte("k"), Value: []byte("v")},
		&DHTPutResp{},
		&DHTGetReq{Key: []byte("k")},
		&DHTGetResp{Found: true, Value: []byte("v")},
		&DHTMultiPutReq{Keys: [][]byte{[]byte("k1"), []byte("k2")}, Values: [][]byte{[]byte("v1"), []byte("v2")}},
		&DHTMultiPutResp{},
		&DHTMultiGetReq{Keys: [][]byte{[]byte("k1")}},
		&DHTMultiGetResp{Found: []bool{true, false}, Values: [][]byte{[]byte("v1"), nil}},
		&DHTStatsReq{},
		&DHTStatsResp{Keys: 3, Bytes: 99},
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
	case *GetPageResp:
		if len(v.Data) == 0 {
			v.Data = nil
		}
	case *DHTGetResp:
		if len(v.Value) == 0 {
			v.Value = nil
		}
	}
	return m
}

func TestEveryKindConstructible(t *testing.T) {
	for k := KindInvalid + 1; k < kindMax; k++ {
		if kindTable[k].name == "" || kindTable[k].new == nil {
			t.Fatalf("kind %d has no name or no constructor in kindTable: %+v", k, kindTable[k])
		}
		if k.String() != kindTable[k].name {
			t.Fatalf("kind %d prints as %q, declared as %q", k, k.String(), kindTable[k].name)
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
	w := NewWriter(16)
	(&PingReq{Nonce: 1}).MarshalTo(w)
	w.Uint8(0xFF) // junk
	if _, err := Decode(KindPingReq, w.Bytes()); err == nil {
		t.Fatal("expected trailing-bytes error")
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	w := NewWriter(64)
	(&PutPageReq{Page: PageID{1}, Data: []byte("abcdef")}).MarshalTo(w)
	full := w.Bytes()
	for cut := 0; cut < len(full); cut++ {
		if _, err := Decode(KindPutPageReq, full[:cut]); err == nil {
			t.Fatalf("truncation at %d bytes not detected", cut)
		}
	}
}

func TestDecodeRejectsHugeLengthPrefix(t *testing.T) {
	w := NewWriter(8)
	w.Uint32(math.MaxUint32) // claimed huge key
	if _, err := Decode(KindDHTGetReq, w.Bytes()); err == nil {
		t.Fatal("expected too-large error")
	}
}

func TestReaderPrimitives(t *testing.T) {
	w := NewWriter(64)
	w.Uint8(7)
	w.Bool(true)
	w.Bool(false)
	w.Uint16(0xBEEF)
	w.Uint32(0xDEADBEEF)
	w.Uint64(0x0102030405060708)
	w.Bytes32([]byte("xy"))
	w.String("hello")
	w.Raw([]byte{9, 9})

	r := NewReader(w.Bytes())
	if got := r.Uint8(); got != 7 {
		t.Errorf("Uint8 = %d", got)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool mismatch")
	}
	if got := r.Uint16(); got != 0xBEEF {
		t.Errorf("Uint16 = %#x", got)
	}
	if got := r.Uint32(); got != 0xDEADBEEF {
		t.Errorf("Uint32 = %#x", got)
	}
	if got := r.Uint64(); got != 0x0102030405060708 {
		t.Errorf("Uint64 = %#x", got)
	}
	if got := r.Bytes32(); !bytes.Equal(got, []byte("xy")) {
		t.Errorf("Bytes32 = %q", got)
	}
	if got := r.String(); got != "hello" {
		t.Errorf("String = %q", got)
	}
	if got := r.Raw(2); !bytes.Equal(got, []byte{9, 9}) {
		t.Errorf("Raw = %v", got)
	}
	if err := r.Finish(); err != nil {
		t.Errorf("Finish: %v", err)
	}
}

func TestReaderErrorSticky(t *testing.T) {
	r := NewReader([]byte{1})
	r.Uint64() // fails
	if r.Err() == nil {
		t.Fatal("expected error")
	}
	// Subsequent reads return zero values, not panic.
	if r.Uint32() != 0 || r.String() != "" || r.Bytes32() != nil {
		t.Fatal("reads after error should return zero values")
	}
}

func TestWriterReset(t *testing.T) {
	w := NewWriter(8)
	w.Uint64(1)
	w.Reset()
	if w.Len() != 0 {
		t.Fatalf("Len after Reset = %d", w.Len())
	}
	w.Uint8(5)
	if !bytes.Equal(w.Bytes(), []byte{5}) {
		t.Fatalf("Bytes after Reset = %v", w.Bytes())
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
		w := NewWriter(64)
		in.MarshalTo(w)
		out, err := Decode(KindAssignReq+1, w.Bytes())
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
		w := NewWriter(64)
		in.MarshalTo(w)
		out, err := Decode(KindDHTMultiPutReq, w.Bytes())
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
	}
	body := AppendMsg(nil, &GetPagesResp{Found: []bool{true, false, true, true}, Data: pages})
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

	one := AppendMsg(nil, &GetPageResp{Data: []byte("page")})
	m, err = Decode(KindGetPageResp, one)
	if err != nil {
		t.Fatal(err)
	}
	clear(one)
	if d := m.(*GetPageResp).Data; string(d) != "page" {
		t.Fatalf("GetPageResp.Data = %q after the body was overwritten", d)
	}
	m, err = Decode(KindGetPageResp, AppendMsg(nil, &GetPageResp{}))
	if err != nil {
		t.Fatal(err)
	}
	if d := m.(*GetPageResp).Data; d != nil {
		t.Fatalf("empty GetPageResp.Data = %#v, want nil", d)
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
		&GetPageResp{},
		&GetPageResp{Data: page},
		&GetPagesResp{},
		&GetPagesResp{Found: []bool{false}, Data: [][]byte{nil}},
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
	if got := BodySize(&PingReq{Nonce: 7}); got != 0 {
		t.Errorf("BodySize(PingReq) = %d, want 0", got)
	}
}
