package wire

import (
	"fmt"
	"testing"

	"blobseer/internal/bufpool"
)

// benchMsgs are the two bulk kinds of the page path — a page going in,
// a 4-page batch coming out — at both page sizes the benchmark
// workloads use.
func benchMsgs() []benchMsg {
	var msgs []benchMsg
	for _, size := range []int{4 << 10, 64 << 10} {
		page := make([]byte, size)
		for i := range page {
			page[i] = byte(i)
		}
		name := fmt.Sprintf("%dKiB", size>>10)
		msgs = append(msgs,
			benchMsg{"PutPageReq/" + name, &PutPageReq{Page: PageID{1}, Data: page}},
			benchMsg{"GetPagesResp/" + name, &GetPagesResp{
				Found: []bool{true, true, true, true},
				Data:  [][]byte{page, page, page, page},
			}})
	}
	return msgs
}

type benchMsg struct {
	name string
	m    Msg
}

var benchSink Msg

// BenchmarkEncode marshals into a buffer kept across messages, the way
// an rpc connection does.
func BenchmarkEncode(b *testing.B) {
	for _, bm := range benchMsgs() {
		m := bm.m
		b.Run(bm.name, func(b *testing.B) {
			var buf []byte
			b.ReportAllocs()
			b.SetBytes(int64(BodySize(m)))
			for i := 0; i < b.N; i++ {
				buf = AppendMsg(buf[:0], m)
			}
		})
	}
}

// BenchmarkDecode decodes a body the way the rpc layer does: PutPageReq
// aliases it, GetPagesResp copies each page out of it into a pooled
// buffer, which the benchmark hands back once decoded, as the client's
// read path does after its copy-out.
func BenchmarkDecode(b *testing.B) {
	for _, bm := range benchMsgs() {
		m := bm.m
		b.Run(bm.name, func(b *testing.B) {
			body := AppendMsg(nil, m)
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				got, err := Decode(m.Kind(), body)
				if err != nil {
					b.Fatal(err)
				}
				if r, ok := got.(*GetPagesResp); ok {
					for _, p := range r.Data {
						bufpool.PutBytes(p)
					}
				}
				benchSink = got
			}
		})
	}
}
