package wire

import (
	"bytes"
	"testing"
)

// gcKinds are the retention/GC message kinds introduced for the
// distributed page collector and the metadata (DHT) node collector.
// Their decoders face bytes from the network, so the fuzz target pins
// two properties on arbitrary input: no panics, and decode∘encode is a
// fixed point (a successful decode re-encodes to bytes that decode to
// the same message).
var gcKinds = []Kind{
	KindDeletePagesReq, KindDeletePagesResp,
	KindExpireReq, KindExpireResp,
	KindGCInfoReq, KindGCInfoResp,
	KindDHTDeleteReq, KindDHTDeleteResp,
}

func marshalBody(m Msg) []byte {
	w := NewWriter(64)
	m.MarshalTo(w)
	return append([]byte(nil), w.Bytes()...)
}

func FuzzDecodeGCWire(f *testing.F) {
	seed := []Msg{
		&DeletePagesReq{Pages: []PageID{{1, 2, 3}, {0xff}}},
		&DeletePagesResp{},
		&ExpireReq{Blob: 7, UpTo: 41},
		&ExpireResp{Floor: 42, Expired: []Version{3, 5, 41}},
		&GCInfoReq{Blob: 7},
		&GCInfoResp{
			OwnMin: 2, Floor: 42,
			Retained: VersionInfo{Version: 42, Size: 1 << 20},
			Expired:  []VersionInfo{{Version: 3, Size: 4096}, {Version: 5, Size: 0}},
		},
		&DHTDeleteReq{Keys: [][]byte{[]byte("node/key/1"), {0xff}, {}}},
		&DHTDeleteResp{Deleted: 17},
	}
	for _, m := range seed {
		f.Add(uint8(m.Kind()), marshalBody(m))
	}
	f.Add(uint8(KindDeletePagesReq), []byte{1, 0, 0, 0})
	f.Add(uint8(KindGCInfoResp), []byte{})
	f.Fuzz(func(t *testing.T, kind uint8, data []byte) {
		k := Kind(kind)
		found := false
		for _, gk := range gcKinds {
			if k == gk {
				found = true
			}
		}
		if !found {
			return
		}
		checkDecodeFixedPoint(t, k, data)
	})
}

func checkDecodeFixedPoint(t *testing.T, k Kind, data []byte) {
	t.Helper()
	m, err := Decode(k, data)
	if err != nil {
		return
	}
	enc := marshalBody(m)
	m2, err := Decode(k, enc)
	if err != nil {
		t.Fatalf("re-decoding %v encoding of %+v: %v", k, m, err)
	}
	if enc2 := marshalBody(m2); !bytes.Equal(enc, enc2) {
		t.Fatalf("%v encoding not a fixed point: %x vs %x", k, enc, enc2)
	}
}

// FuzzDecodeWire seeds every wire kind with a populated message — the
// wirekinds analyzer (cmd/blobseer-vet) enforces that the seed list
// stays exhaustive as kinds are appended — and every retired kind with
// what its last encoder wrote, and pins the same two
// properties as FuzzDecodeGCWire on the whole protocol surface: no
// decoder panics on arbitrary bytes, and decode∘encode is a fixed
// point.
func FuzzDecodeWire(f *testing.F) {
	pid := PageID{0xa, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 0xb}
	seed := []Msg{
		&PingReq{Nonce: 7},
		&PingResp{Nonce: 7},
		&PutPageReq{Page: pid, Data: []byte("page-bytes")},
		&PutPageResp{},
		&GetPageReq{Page: pid, Offset: 64, Length: WholePage},
		&GetPageResp{Data: []byte{0xde, 0xad}},
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
	covered := make(map[Kind]bool)
	for _, m := range seed {
		covered[m.Kind()] = true
		f.Add(uint8(m.Kind()), marshalBody(m))
	}
	for _, r := range retiredKinds {
		covered[r.kind] = true
		f.Add(uint8(r.kind), r.body())
	}
	// The seed list must span the whole enum; a miss here means a kind
	// was appended without a seed (blobseer-vet flags the same gap).
	for k := KindInvalid + 1; k < kindMax; k++ {
		if !covered[k] {
			f.Fuzz(func(t *testing.T, _ uint8, _ []byte) {
				t.Fatalf("kind %v has no populated fuzz seed", k)
			})
			return
		}
	}
	// Truncated and empty bodies for a few structurally distinct kinds.
	f.Add(uint8(KindAssignResp), []byte{1, 2, 3})
	f.Add(uint8(KindDHTMultiPutReq), []byte{0xff, 0xff, 0xff, 0xff})
	f.Add(uint8(KindErrorResp), []byte{})
	f.Fuzz(func(t *testing.T, kind uint8, data []byte) {
		checkDecodeFixedPoint(t, Kind(kind), data)
	})
}
