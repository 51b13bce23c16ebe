package wire

import (
	"bytes"
	"testing"
)

func checkDecodeFixedPoint(t *testing.T, k Kind, data []byte) {
	t.Helper()
	m, err := Decode(k, data)
	if err != nil {
		return
	}
	enc := AppendMsg(nil, m)
	m2, err := Decode(k, enc)
	if err != nil {
		t.Fatalf("re-decoding %v encoding of %+v: %v", k, m, err)
	}
	if enc2 := AppendMsg(nil, m2); !bytes.Equal(enc, enc2) {
		t.Fatalf("%v encoding not a fixed point: %x vs %x", k, enc, enc2)
	}
}

// wireSeeds is FuzzDecodeWire's populated message of every live kind;
// TestKindRegistry holds it to the registry as kinds are appended.
func wireSeeds() []Msg {
	pid := PageID{0xa, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 0xb}
	return []Msg{
		&PutPageReq{Page: pid, Data: []byte("page-bytes")},
		&PutPageResp{},
		&RegisterReq{Addr: "127.0.0.1:7000", Weight: 2},
		&RegisterResp{ID: 11},
		&HeartbeatReq{ID: 11, Pages: 5, Bytes: 640},
		&HeartbeatResp{Known: true},
		&AllocateReq{N: 4, Copies: 2},
		&AllocateResp{Addrs: []string{"a:1", "b:2", "", "c:3"}},
		&DHTMultiPutReq{Keys: [][]byte{[]byte("k1"), {}}, Values: [][]byte{[]byte("v1"), {0xff}}},
		&DHTMultiPutResp{},
		&DHTMultiGetReq{Keys: [][]byte{[]byte("k1"), []byte("k2")}},
		&DHTMultiGetResp{Found: []bool{true, false}, Values: [][]byte{[]byte("v1"), {}}},
		&CreateBlobReq{PageSize: 4096},
		&CreateBlobResp{Blob: 3},
		&BlobInfoReq{Blob: 3},
		&BlobInfoResp{PageSize: 4096, Lineage: Lineage{{Blob: 3, MinVersion: 2}, {Blob: 1, MinVersion: 0}}},
		&AssignReq{Blob: 3, Offset: 0, Size: 8192, Append: true},
		&AssignResp{
			Version: 4, Offset: 8192, NewSize: 16384, PrevSize: 8192,
			Published: 3, PublishedSize: 8192,
			InFlight: []UpdateDesc{{Version: 2, Offset: 0, Size: 4096}},
		},
		&CompleteReq{Blob: 3, Version: 4},
		&CompleteResp{},
		&AbortReq{Blob: 3, Version: 4},
		&AbortResp{},
		&RecentReq{Blob: 3},
		&RecentResp{Version: 4, Size: 16384},
		&SizeReq{Blob: 3, Version: 4},
		&SizeResp{Size: 16384},
		&SyncReq{Blob: 3, Version: 4},
		&SyncResp{},
		&BranchReq{Blob: 3, Version: 4},
		&BranchResp{NewBlob: 5},
		&ErrorResp{Code: CodeNotFound, Msg: "no such blob"},
		&DeletePagesReq{Pages: []PageID{pid}},
		&DeletePagesResp{},
		&ExpireReq{Blob: 3, UpTo: 2},
		&ExpireResp{Floor: 3, Expired: []Version{1, 2}},
		&GCInfoReq{Blob: 3},
		&GCInfoResp{
			OwnMin: 1, Floor: 3,
			Retained: VersionInfo{Version: 3, Size: 8192},
			Expired:  []VersionInfo{{Version: 1, Size: 4096}},
		},
		&DHTDeleteReq{Keys: [][]byte{[]byte("node/key")}},
		&DHTDeleteResp{Deleted: 1},
		&GetPagesReq{Ranges: []PageRange{
			{Page: pid, Offset: 0, Length: WholePage},
			{Page: PageID{1}, Offset: 128, Length: 64},
		}},
		&GetPagesResp{Found: []bool{true, false}, Data: [][]byte{{0xbe, 0xef}, {}}},
	}
}

// FuzzDecodeWire seeds every live wire kind with a populated message
// (wireSeeds) and every retired kind with what its last encoder wrote.
// Every decoder faces bytes from the network, so the target pins two
// properties on arbitrary input: no decoder panics, and decode∘encode
// is a fixed point (a successful decode re-encodes to bytes that decode
// to the same message).
func FuzzDecodeWire(f *testing.F) {
	for _, m := range wireSeeds() {
		f.Add(uint8(m.Kind()), AppendMsg(nil, m))
	}
	for _, r := range retiredKinds {
		f.Add(uint8(r.kind), r.body)
	}
	// Truncated and empty bodies for a few structurally distinct kinds.
	f.Add(uint8(KindAssignResp), []byte{1, 2, 3})
	f.Add(uint8(KindDHTMultiPutReq), []byte{0xff, 0xff, 0xff, 0xff})
	f.Add(uint8(KindErrorResp), []byte{})
	f.Add(uint8(KindDeletePagesReq), []byte{1, 0, 0, 0})
	f.Add(uint8(KindGCInfoResp), []byte{})
	f.Fuzz(func(t *testing.T, kind uint8, data []byte) {
		checkDecodeFixedPoint(t, Kind(kind), data)
	})
}
