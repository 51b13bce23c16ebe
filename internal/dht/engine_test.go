package dht

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"
	"unsafe"

	"blobseer/internal/rpc"
	"blobseer/internal/transport"
	"blobseer/internal/vclock"
	"blobseer/internal/wire"
)

// wantLogIsAllState checks that the durable node counts no pair its log
// does not: what the node reports is what its log counts.
func wantLogIsAllState(t *testing.T, nd *Node) {
	t.Helper()
	st := stats(nd.log)
	if k, b := stored(nd); k != st.Keys || b != st.ValueBytes {
		t.Fatalf("node stats %d keys %d bytes, log stats %d keys %d bytes", k, b, st.Keys, st.ValueBytes)
	}
}

// TestDurableNodeKeepsNoPairAtRest: whatever acknowledged requests did —
// concurrent MULTI_PUTs sharing keys, a failed commit, a sweep — once
// they have returned the node holds exactly what its log does.
func TestDurableNodeKeepsNoPairAtRest(t *testing.T) {
	r := newDurableNodeRigOpts(t, LogOptions{})
	ctx := context.Background()
	c := r.client()
	shared, sharedValues := pairs("shared", 10)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 25; round++ {
				keys, values := pairs(fmt.Sprintf("own/%d/%d", g, round), 12)
				keys, values = append(keys, shared...), append(values, sharedValues...)
				if err := c.MultiPut(ctx, keys, values); err != nil {
					t.Errorf("writer %d round %d: %v", g, round, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if k, _ := stored(r.node); k != 4*25*12+10 {
		t.Fatalf("%d keys stored, want %d", k, 4*25*12+10)
	}
	wantLogIsAllState(t, r.node)

	doomed, doomedValues := pairs("doomed", 5)
	entered, release := r.node.log.GateNextCommit()
	put := make(chan error, 1)
	go func() { put <- c.MultiPut(ctx, doomed, doomedValues) }()
	<-entered
	release <- errors.New("disk on fire")
	if err := <-put; wire.CodeOf(err) != wire.CodeUnavailable {
		t.Fatalf("put over a failed commit = %v, want CodeUnavailable", err)
	}
	wantLogIsAllState(t, r.node)

	if removed, err := c.Delete(ctx, shared); err != nil || removed != 10 {
		t.Fatalf("delete: removed %d, %v", removed, err)
	}
	wantLogIsAllState(t, r.node)
}

// TestDeleteRepeatedKeyCountsOnce: DHTDeleteResp.Deleted counts pairs,
// not mentions. On a durable node a key leaves the log's index only
// when its tombstone's batch applies, so a repeat inside one request and
// a second sweep racing the first each log a tombstone of their own: the
// first to apply counts the pair, the others count nothing — and until
// one is logged the pair stays readable.
func TestDeleteRepeatedKeyCountsOnce(t *testing.T) {
	ctx := context.Background()
	durable := newDurableNodeRigOpts(t, LogOptions{})
	mem, memNodes := newCluster(t, 1, 1)
	node := map[string]*Node{"memory": memNodes[0], "durable": durable.node}
	for name, c := range map[string]*Client{"memory": mem, "durable": durable.client()} {
		k, other := nkey("named twice"), nkey("named once")
		if err := c.MultiPut(ctx, [][]byte{k, other}, [][]byte{[]byte("v"), []byte("w")}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		before := stats(durable.node.log).Appends
		removed, err := c.Delete(ctx, [][]byte{k, nkey("never stored"), k, other, k})
		if err != nil || removed != 2 {
			t.Fatalf("%s: delete naming a key three times removed %d pairs (%v), want 2", name, removed, err)
		}
		if recs := stats(durable.node.log).Appends - before; name == "durable" && (recs < 2 || recs > 4) {
			t.Fatalf("%d tombstones logged for 2 pairs named 4 times", recs)
		}
		if keys, _ := stored(node[name]); keys != 0 {
			t.Fatalf("%s: %d keys left", name, keys)
		}
	}

	c := durable.client()
	k, v := nkey("swept twice"), []byte("still logged")
	if err := c.Put(ctx, k, v); err != nil {
		t.Fatal(err)
	}
	entered, release := durable.node.log.GateNextCommit()
	type result struct {
		removed uint64
		err     error
	}
	sweep := func() chan result {
		done := make(chan result, 1)
		go func() {
			n, err := c.Delete(ctx, [][]byte{k})
			done <- result{n, err}
		}()
		return done
	}
	first := sweep()
	<-entered
	second := sweep()
	if got, ok, err := c.Get(ctx, k); err != nil || !ok || !bytes.Equal(got, v) {
		t.Fatalf("GET while the tombstone's commit is parked = %q %v %v, want the logged pair", got, ok, err)
	}
	close(release)
	res1, res2 := <-first, <-second
	if res1.err != nil || res2.err != nil || res1.removed+res2.removed != 1 {
		t.Fatalf("two sweeps of one pair removed %d (%v) and %d (%v), want 1 between them",
			res1.removed, res1.err, res2.removed, res2.err)
	}
	if _, ok, err := c.Get(ctx, k); err != nil || ok {
		t.Fatalf("GET after the delete was acknowledged: found %v, %v", ok, err)
	}
	wantLogIsAllState(t, durable.node)
	durable.restart()
	if keys, _ := stored(durable.node); keys != 0 {
		t.Fatalf("%d keys after the restart, want 0", keys)
	}
}

// TestDivergentReputOfLoggedPairSameLength: against a pair that is
// logged and no longer in flight the immutability compare has only the
// log to go by, and it must read the bytes — the index's length alone
// cannot tell two values of one size apart.
func TestDivergentReputOfLoggedPairSameLength(t *testing.T) {
	r := newDurableNodeRigOpts(t, LogOptions{})
	ctx := context.Background()
	k, v := nkey("k"), []byte("first value")
	if err := r.client().Put(ctx, k, v); err != nil {
		t.Fatal(err)
	}
	for _, when := range []string{"same run", "after a restart"} {
		c := r.client()
		before := stats(r.node.log).Appends
		if err := c.Put(ctx, k, []byte("other value")); wire.CodeOf(err) != wire.CodeBadRequest {
			t.Fatalf("%s: divergent re-put of equal length = %v, want CodeBadRequest", when, err)
		}
		if err := c.Put(ctx, k, []byte("a longer value")); wire.CodeOf(err) != wire.CodeBadRequest {
			t.Fatalf("%s: divergent re-put of another length = %v, want CodeBadRequest", when, err)
		}
		if err := c.MultiPut(ctx, [][]byte{k}, [][]byte{v}); err != nil {
			t.Fatalf("%s: identical re-put: %v", when, err)
		}
		if recs := stats(r.node.log).Appends - before; recs != 0 {
			t.Fatalf("%s: re-puts of a logged pair logged %d records", when, recs)
		}
		wantStored(t, c, [][]byte{k}, [][]byte{v})
		r.restart()
	}
}

// TestGetRacesCompaction: a GET reads its pair from a log segment, and
// the compactor rewrites segments — moving the live pairs and swapping
// the file — underneath it. Readers check every byte of pairs that stay
// live while the main goroutine deletes their neighbours and compacts,
// segment after segment. Released buffers are poisoned in this package's
// tests, so a response buffer handed back before its frame was built
// reads as 0xDB. Run under -race.
func TestGetRacesCompaction(t *testing.T) {
	r := newDurableNodeRigOpts(t, LogOptions{SegmentBytes: 2048})
	ctx := context.Background()
	c := r.client()
	const total = 400
	key := func(i int) []byte { return nkey(fmt.Sprintf("tree/%d/node/%d", i%5, i)) }
	val := func(i int) []byte { return bytes.Repeat([]byte{byte(i), byte(i >> 8), 0x5A}, 8+i%32) }
	var keys, vals [][]byte
	for i := 0; i < total; i++ {
		keys, vals = append(keys, key(i)), append(vals, val(i))
	}
	for at := 0; at < total; at += 20 { // a commit lands in one segment: spread them
		if err := c.MultiPut(ctx, keys[at:at+20], vals[at:at+20]); err != nil {
			t.Fatal(err)
		}
	}
	live := func(i int) bool { return i%4 == 0 }
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; ; round++ {
				select {
				case <-stop:
					return
				default:
				}
				var batch [][]byte
				var want []int
				for k := 0; k < 1+(g+round)%16; k++ {
					i := ((g*97 + round*13 + k*7) % (total / 4)) * 4
					batch, want = append(batch, key(i)), append(want, i)
				}
				got, found, err := c.MultiGet(ctx, batch, nil, nil, nil)
				if err != nil {
					t.Errorf("reader %d: %v", g, err)
					return
				}
				for k, i := range want {
					if !found[k] || !bytes.Equal(got[k], val(i)) {
						t.Errorf("reader %d round %d: key %s: found %v, value %x", g, round, batch[k], found[k], got[k])
						return
					}
				}
				if v, ok, err := c.Get(ctx, batch[0]); err != nil || !ok || !bytes.Equal(v, val(want[0])) {
					t.Errorf("reader %d round %d: GET %s = %x %v %v", g, round, batch[0], v, ok, err)
					return
				}
			}
		}(g)
	}
	for lo := 0; lo < total; lo += 40 {
		var victims [][]byte
		for i := lo; i < lo+40; i++ {
			if !live(i) {
				victims = append(victims, key(i))
			}
		}
		if removed, err := c.Delete(ctx, victims); err != nil || removed != 30 {
			t.Fatalf("delete: removed %d, %v", removed, err)
		}
		if err := r.node.CompactLog(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if st := stats(r.node.log); st.Compactions == 0 || st.Keys != total/4 {
		t.Fatalf("%d rewrites, %d keys left; want some rewrites and %d keys", st.Compactions, st.Keys, total/4)
	}
}

// ledger keeps books on the value buffers a node lends: every lend is a
// loan until giveBack brings that same buffer back, once.
type ledger struct {
	mu       sync.Mutex
	out      map[*byte]int // start of a lent buffer -> times on loan
	lent     int
	released int
	bad      []string
}

// keepBooks routes lend and giveBack through a new ledger until the test
// ends.
func keepBooks(t *testing.T) *ledger {
	l := &ledger{out: make(map[*byte]int)}
	lend0, giveBack0 := lend, giveBack
	t.Cleanup(func() { lend, giveBack = lend0, giveBack0 })
	lend = func(n int) []byte {
		b := lend0(n)
		l.mu.Lock()
		l.out[unsafe.SliceData(b)]++
		l.lent++
		l.mu.Unlock()
		return b
	}
	giveBack = func(b []byte) {
		l.mu.Lock()
		if p := unsafe.SliceData(b); l.out[p] == 0 {
			l.bad = append(l.bad, fmt.Sprintf("give-back of a %d-byte buffer that is not on loan", cap(b)))
		} else {
			l.out[p]--
		}
		l.released++
		l.mu.Unlock()
		giveBack0(b)
	}
	return l
}

// settled waits until nothing is on loan — the server releases on its
// own goroutine, after the handler — and checks the books since the
// last call: loans made, as many given back, none of them wrong.
func (l *ledger) settled(t *testing.T, when string, loans int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		l.mu.Lock()
		open := 0
		for _, n := range l.out {
			open += n
		}
		lent, released, bad := l.lent, l.released, l.bad
		if open == 0 {
			l.lent, l.released = 0, 0
		}
		l.mu.Unlock()
		switch {
		case len(bad) > 0:
			t.Fatalf("%s: %v", when, bad)
		case open == 0 && (lent != loans || released != loans):
			t.Fatalf("%s: %d loans made and %d given back, want %d of each", when, lent, released, loans)
		case open == 0:
			return
		case time.Now().After(deadline):
			t.Fatalf("%s: %d of %d loans never came back", when, open, lent)
		}
	}
}

// TestEveryLentValueBufferReleasedOnce walks DHT_MULTI_GET out of every
// exit it has, over a log on disk and one in memory, and checks the
// books on the node's value buffers after each: what getBatch lent came
// back through giveBack exactly once, and nothing else did.
func TestEveryLentValueBufferReleasedOnce(t *testing.T) {
	for _, name := range []string{"Disk", "Mem"} {
		t.Run(name, func(t *testing.T) {
			path := ""
			if name == "Disk" {
				path = filepath.Join(t.TempDir(), "meta.log")
			}
			books := keepBooks(t)
			nd, err := newNode(nil, path, LogOptions{})
			if err != nil {
				t.Fatal(err)
			}
			net := transport.NewInproc()
			ln, err := net.Listen("meta")
			if err != nil {
				t.Fatal(err)
			}
			nd.srv = rpc.Serve(ln, vclock.NewReal(), nd.mux())
			cl := rpc.NewClient(net, vclock.NewReal())
			t.Cleanup(func() {
				cl.Close()
				nd.Close()
				net.Close()
			})
			ctx := context.Background()
			a, b, missing, oversize := nkey("a"), nkey("b"), nkey("missing"), nkey("oversize")
			put := &wire.DHTMultiPutReq{Keys: [][]byte{a, b}, Values: [][]byte{[]byte("0123456789"), []byte("abcdef")}}
			if _, err := cl.Call(ctx, "meta", put); err != nil {
				t.Fatal(err)
			}
			// A value no frame can carry: the wire refuses to bring it in,
			// so it goes straight into the log.
			if _, err := nd.log.PutBatch([][]byte{oversize}, [][]byte{make([]byte, rpc.MaxFrameBody+1)}); err != nil {
				t.Fatal(err)
			}

			resp, err := cl.Call(ctx, "meta", &wire.DHTMultiGetReq{Keys: [][]byte{a}})
			if err != nil || string(resp.(*wire.DHTMultiGetResp).Values[0]) != "0123456789" {
				t.Fatalf("MULTI_GET of one key = %v, %v", resp, err)
			}
			books.settled(t, "MULTI_GET of one key served", 1)

			resp, err = cl.Call(ctx, "meta", &wire.DHTMultiGetReq{Keys: [][]byte{missing}})
			if err != nil || resp.(*wire.DHTMultiGetResp).Found[0] {
				t.Fatalf("MULTI_GET of a missing key = %v, %v", resp, err)
			}
			books.settled(t, "MULTI_GET of a missing key", 0)

			resp, err = cl.Call(ctx, "meta", &wire.DHTMultiGetReq{Keys: [][]byte{missing, missing}})
			if err != nil || resp.(*wire.DHTMultiGetResp).Found[0] {
				t.Fatalf("MULTI_GET of missing keys = %v, %v", resp, err)
			}
			books.settled(t, "MULTI_GET that found nothing", 0)

			resp, err = cl.Call(ctx, "meta", &wire.DHTMultiGetReq{Keys: [][]byte{a, missing, b}})
			if err != nil {
				t.Fatal(err)
			}
			if r := resp.(*wire.DHTMultiGetResp); !r.Found[0] || r.Found[1] || !r.Found[2] ||
				string(r.Values[0]) != "0123456789" || string(r.Values[2]) != "abcdef" {
				t.Fatalf("MULTI_GET around a missing key = %+v", r)
			}
			books.settled(t, "MULTI_GET served around a missing key", 1)

			if _, err := cl.Call(ctx, "meta", &wire.DHTMultiGetReq{Keys: [][]byte{oversize}}); err == nil {
				t.Fatal("a value no frame can carry was served")
			}
			books.settled(t, "MULTI_GET of one key failed to encode", 1)
			if _, err := cl.Call(ctx, "meta", &wire.DHTMultiGetReq{Keys: [][]byte{a, oversize, b}}); err == nil {
				t.Fatal("a value no frame can carry was served")
			}
			books.settled(t, "MULTI_GET response failed to encode", 1)

			// Last, as it ends the log: the index still sizes the buffer,
			// and the read that fails must give it back.
			if err := nd.log.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := cl.Call(ctx, "meta", &wire.DHTMultiGetReq{Keys: [][]byte{a, b}}); wire.CodeOf(err) != wire.CodeUnavailable {
				t.Fatalf("err = %v, want the log's", err)
			}
			books.settled(t, "log error", 1)
		})
	}
}

// TestNodeRefusesKeysOfAnyOtherSize: every key a node stores is a tree
// node's KeyLen-byte name, and a request naming any other size is
// refused whole, in memory or on disk, before the log sees it — a put
// stores none of its pairs, a delete removes none, a lookup answers
// nothing.
func TestNodeRefusesKeysOfAnyOtherSize(t *testing.T) {
	ctx := context.Background()
	mem, memNodes := newCluster(t, 1, 1)
	durable := newDurableNodeRig(t)
	for _, e := range []struct {
		name string
		c    *Client
		node *Node
	}{{"Mem", mem, memNodes[0]}, {"Disk", durable.client(), durable.node}} {
		t.Run(e.name, func(t *testing.T) {
			stored0, v := nkey("stored"), []byte("v")
			if err := e.c.Put(ctx, stored0, v); err != nil {
				t.Fatal(err)
			}
			for _, n := range []int{KeyLen - 1, KeyLen + 1} {
				bad, good := bytes.Repeat([]byte{'k'}, n), nkey(fmt.Sprintf("good beside %d", n))
				refused := func(op string, err error) {
					t.Helper()
					if wire.CodeOf(err) != wire.CodeBadRequest {
						t.Fatalf("%s naming a %d-byte key = %v, want CodeBadRequest", op, n, err)
					}
					if keys, _ := stored(e.node); keys != 1 {
						t.Fatalf("%s naming a %d-byte key left %d keys stored, want 1", op, n, keys)
					}
				}
				refused("MULTI_PUT", e.c.MultiPut(ctx, [][]byte{good, bad}, [][]byte{v, v}))
				_, _, err := e.c.MultiGet(ctx, [][]byte{stored0, bad}, nil, nil, nil)
				refused("MULTI_GET", err)
				_, err = e.c.Delete(ctx, [][]byte{stored0, bad})
				refused("DELETE", err)
				if _, ok, err := e.c.Get(ctx, good); err != nil || ok {
					t.Fatalf("the good key of a refused MULTI_PUT: found %v, %v", ok, err)
				}
				if got, ok, err := e.c.Get(ctx, stored0); err != nil || !ok || !bytes.Equal(got, v) {
					t.Fatalf("the good key of a refused DELETE: %q %v %v", got, ok, err)
				}
			}
		})
	}
}
