package dht

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"blobseer/internal/obs"
	"blobseer/internal/rpc"
	"blobseer/internal/seglog"
	"blobseer/internal/transport"
	"blobseer/internal/vclock"
	"blobseer/internal/wire"
)

// nkey is the key a test calls name: its bytes, zero-padded to the
// KeyLen every key a node stores has.
func nkey(name string) []byte {
	if len(name) > KeyLen {
		panic(fmt.Sprintf("test key %q is longer than %d bytes", name, KeyLen))
	}
	return append([]byte(name), make([]byte, KeyLen-len(name))...)
}

// stored reads a node's pair count and summed value size off its series.
func stored(n *Node) (keys, bytes uint64) {
	return uint64(obs.Value(n, "store_keys")), uint64(obs.Value(n, "store_value_bytes"))
}

// logStats is a test's reading of the metadata-log series it asserts on.
type logStats struct{ Keys, ValueBytes, Appends, Syncs, Snapshots, Compactions uint64 }

func stats(log *seglog.KV) logStats {
	v := func(name string) uint64 { return uint64(obs.Value(log, name)) }
	return logStats{v("store_keys"), v("store_value_bytes"), v("store_appends_total"), v("store_syncs_total"),
		v("store_snapshots_total"), v("store_compactions_total")}
}

// newCluster spins up n metadata nodes plus a client with the given
// replication factor.
func newCluster(t testing.TB, n, replicas int) (*Client, []*Node) {
	return newClusterWith(t, n, replicas, func(h rpc.Handler) rpc.Handler { return h })
}

// newClusterWith is newCluster with every node's handler wrapped.
func newClusterWith(t testing.TB, n, replicas int, wrap func(rpc.Handler) rpc.Handler) (*Client, []*Node) {
	t.Helper()
	net := transport.NewInproc()
	sched := vclock.NewReal()
	nodes := make([]*Node, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen(fmt.Sprintf("meta-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if nodes[i], err = newNode(nil, "", LogOptions{}); err != nil {
			t.Fatal(err)
		}
		nodes[i].srv = rpc.Serve(ln, sched, wrap(nodes[i].mux()))
		addrs[i] = nodes[i].Addr()
	}
	ring, err := NewRing(addrs, replicas)
	if err != nil {
		t.Fatal(err)
	}
	rc := rpc.NewClient(net, sched)
	t.Cleanup(func() {
		rc.Close()
		for _, nd := range nodes {
			nd.Close()
		}
		net.Close()
	})
	return NewClient(ring, rc, sched), nodes
}

func TestRingRejectsEmpty(t *testing.T) {
	if _, err := NewRing(nil, 1); err == nil {
		t.Fatal("empty ring accepted")
	}
}

func TestRingReplicaClamping(t *testing.T) {
	r, _ := NewRing([]string{"a", "b"}, 5)
	if r.replicas != 2 {
		t.Fatalf("replicas = %d, want clamped 2", r.replicas)
	}
	r, _ = NewRing([]string{"a", "b"}, 0)
	if r.replicas != 1 {
		t.Fatalf("replicas = %d, want 1", r.replicas)
	}
}

func TestRingNodesDistinct(t *testing.T) {
	r, _ := NewRing([]string{"a", "b", "c", "d"}, 3)
	nodes := r.Nodes([]byte("some-key"))
	if len(nodes) != 3 {
		t.Fatalf("replica set size %d", len(nodes))
	}
	seen := map[string]bool{}
	for _, n := range nodes {
		if seen[n] {
			t.Fatalf("duplicate replica %s", n)
		}
		seen[n] = true
	}
	if nodes[0] != r.Primary([]byte("some-key")) {
		t.Fatal("first replica is not the primary")
	}
}

func TestRingSpreadsKeys(t *testing.T) {
	r, _ := NewRing([]string{"a", "b", "c", "d", "e"}, 1)
	counts := map[string]int{}
	for i := 0; i < 5000; i++ {
		counts[r.Primary([]byte(fmt.Sprintf("key-%d", i)))]++
	}
	for n, c := range counts {
		if c < 700 || c > 1300 {
			t.Errorf("node %s owns %d of 5000 keys: poor spread", n, c)
		}
	}
}

func TestPutGetSingleNode(t *testing.T) {
	c, _ := newCluster(t, 1, 1)
	ctx := context.Background()
	if err := c.Put(ctx, nkey("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := c.Get(ctx, nkey("k"))
	if err != nil || !ok || string(v) != "v" {
		t.Fatalf("Get = %q, %v, %v", v, ok, err)
	}
	_, ok, err = c.Get(ctx, nkey("missing"))
	if err != nil || ok {
		t.Fatalf("missing key: ok=%v err=%v", ok, err)
	}
}

func TestPutGetManyNodes(t *testing.T) {
	c, nodes := newCluster(t, 7, 1)
	ctx := context.Background()
	const n = 500
	for i := 0; i < n; i++ {
		k := nkey(fmt.Sprintf("key-%d", i))
		if err := c.Put(ctx, k, append([]byte("val-"), k...)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		k := nkey(fmt.Sprintf("key-%d", i))
		v, ok, err := c.Get(ctx, k)
		if err != nil || !ok || !bytes.Equal(v, append([]byte("val-"), k...)) {
			t.Fatalf("key %d: %q %v %v", i, v, ok, err)
		}
	}
	// Keys must actually be distributed: every node should hold some.
	for i, nd := range nodes {
		keys, _ := stored(nd)
		if keys == 0 {
			t.Errorf("node %d holds no keys", i)
		}
	}
}

func TestReplicationStoresCopies(t *testing.T) {
	c, nodes := newCluster(t, 5, 3)
	ctx := context.Background()
	if err := c.Put(ctx, nkey("replicated"), []byte("value")); err != nil {
		t.Fatal(err)
	}
	var copies, size uint64
	for _, nd := range nodes {
		k, b := stored(nd)
		copies, size = copies+k, size+b
	}
	if copies != 3 || size != 3*5 {
		t.Fatalf("stored %d copies of %d bytes, want 3 of 15", copies, size)
	}
}

func TestReplicationSurvivesPrimaryLoss(t *testing.T) {
	c, nodes := newCluster(t, 4, 2)
	ctx := context.Background()
	key := nkey("precious")
	if err := c.Put(ctx, key, []byte("v")); err != nil {
		t.Fatal(err)
	}
	// Kill the primary; Get must fall through to the replica.
	primary := c.ring.Primary(key)
	for _, nd := range nodes {
		if nd.Addr() == primary {
			nd.Close()
		}
	}
	v, ok, err := c.Get(ctx, key)
	if err != nil || !ok || string(v) != "v" {
		t.Fatalf("Get after primary loss = %q %v %v", v, ok, err)
	}
}

func TestMultiPutMultiGet(t *testing.T) {
	c, _ := newCluster(t, 5, 1)
	ctx := context.Background()
	const n = 200
	keys := make([][]byte, n)
	vals := make([][]byte, n)
	for i := range keys {
		keys[i] = nkey(fmt.Sprintf("mk-%d", i))
		vals[i] = []byte(fmt.Sprintf("mv-%d", i))
	}
	if err := c.MultiPut(ctx, keys, vals); err != nil {
		t.Fatal(err)
	}
	got, found, err := c.MultiGet(ctx, keys, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		if !found[i] || !bytes.Equal(got[i], vals[i]) {
			t.Fatalf("key %d: found=%v val=%q", i, found[i], got[i])
		}
	}
	// Mixed present/missing batch.
	got, found, err = c.MultiGet(ctx, [][]byte{keys[0], nkey("nope"), keys[1]}, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !found[0] || found[1] || !found[2] {
		t.Fatalf("mixed found = %v", found)
	}
	_ = got
}

func TestMultiPutLengthMismatch(t *testing.T) {
	c, _ := newCluster(t, 1, 1)
	if err := c.MultiPut(context.Background(), [][]byte{{1}}, nil); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestEmptyBatches(t *testing.T) {
	c, _ := newCluster(t, 2, 1)
	ctx := context.Background()
	if err := c.MultiPut(ctx, nil, nil); err != nil {
		t.Fatal(err)
	}
	v, f, err := c.MultiGet(ctx, nil, nil, nil, nil)
	if err != nil || len(v) != 0 || len(f) != 0 {
		t.Fatalf("empty MultiGet: %v %v %v", v, f, err)
	}
}

func TestEmptyKeyRejected(t *testing.T) {
	c, _ := newCluster(t, 1, 1)
	if err := c.Put(context.Background(), nil, []byte("v")); err == nil {
		t.Fatal("empty key accepted")
	}
}

func TestImmutableReput(t *testing.T) {
	c, _ := newCluster(t, 1, 1)
	ctx := context.Background()
	if err := c.Put(ctx, nkey("k"), []byte("first")); err != nil {
		t.Fatal(err)
	}
	// An identical re-put is an idempotent no-op (writers retry, replicas
	// re-send)...
	if err := c.Put(ctx, nkey("k"), []byte("first")); err != nil {
		t.Fatalf("identical re-put rejected: %v", err)
	}
	// ...but a divergent re-put is a corruption signal, not a silent
	// keep-first: node keys embed version+range, so two writers can only
	// ever produce identical bytes for the same key.
	err := c.Put(ctx, nkey("k"), []byte("second"))
	if err == nil {
		t.Fatal("divergent re-put accepted")
	}
	if wire.CodeOf(err) != wire.CodeBadRequest {
		t.Fatalf("divergent re-put error = %v, want CodeBadRequest", err)
	}
	v, _, _ := c.Get(ctx, nkey("k"))
	if string(v) != "first" {
		t.Fatalf("divergent re-put overwrote immutable value: %q", v)
	}
	// The same contract holds inside a MultiPut batch.
	err = c.MultiPut(ctx, [][]byte{nkey("k")}, [][]byte{[]byte("third")})
	if err == nil || wire.CodeOf(err) != wire.CodeBadRequest {
		t.Fatalf("divergent multi-put error = %v, want CodeBadRequest", err)
	}
}

func TestDeleteRemovesPairsOnEveryReplica(t *testing.T) {
	c, nodes := newCluster(t, 4, 2)
	ctx := context.Background()
	var keys [][]byte
	for i := 0; i < 40; i++ {
		k := nkey(fmt.Sprintf("k%d", i))
		keys = append(keys, k)
		if err := c.Put(ctx, k, bytes.Repeat([]byte{byte(i)}, 25)); err != nil {
			t.Fatal(err)
		}
	}
	removed, err := c.Delete(ctx, keys[:30])
	if err != nil {
		t.Fatal(err)
	}
	if removed != 60 { // 30 keys x 2 replicas
		t.Fatalf("removed %d copies, want 60", removed)
	}
	for i, k := range keys {
		_, ok, err := c.Get(ctx, k)
		if err != nil {
			t.Fatal(err)
		}
		if i < 30 && ok {
			t.Fatalf("deleted key %s still readable through some replica", k)
		}
		if i >= 30 && !ok {
			t.Fatalf("live key %s lost by delete batch", k)
		}
	}
	var totalKeys uint64
	for _, n := range nodes {
		k, _ := stored(n)
		totalKeys += k
	}
	if totalKeys != 20 { // 10 live keys x 2 replicas
		t.Fatalf("stats count %d key copies after delete, want 20", totalKeys)
	}
	// Idempotent: nothing left to remove.
	if again, err := c.Delete(ctx, keys[:30]); err != nil || again != 0 {
		t.Fatalf("re-delete: %d, %v", again, err)
	}
}

func TestQuickRoundTripAnyKeyValue(t *testing.T) {
	c, _ := newCluster(t, 4, 2)
	ctx := context.Background()
	seen := make(map[string][]byte)
	f := func(k [KeyLen]byte, value []byte) bool {
		key := k[:]
		if prev, dup := seen[string(key)]; dup && !bytes.Equal(prev, value) {
			// Re-put with a different value is rejected by design
			// (divergence is a corruption signal); the first value stays.
			if err := c.Put(ctx, key, value); err == nil {
				return false
			}
			value = prev
		} else if err := c.Put(ctx, key, value); err != nil {
			return false
		} else {
			seen[string(key)] = value
		}
		got, ok, err := c.Get(ctx, key)
		return err == nil && ok && bytes.Equal(got, value)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestRingHashIsFNV1a pins the placement function: the inlined hash is
// hash/fnv's 64-bit FNV-1a, bit for bit — a durable deployment's keys
// live where that function put them.
func TestRingHashIsFNV1a(t *testing.T) {
	r, err := NewRing([]string{"a", "b", "c", "d", "e", "f", "g"}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		key := []byte(fmt.Sprintf("key-%d-%x", i, i*2654435761))
		h := fnv.New64a()
		h.Write(key)
		want := int(h.Sum64() % uint64(len(r.addrs)))
		if got := r.primary(key); got != want {
			t.Fatalf("primary(%q) = %d, hash/fnv says %d", key, got, want)
		}
		for j, addr := range r.Nodes(key) {
			if addr != r.addrs[r.at(want, j)] {
				t.Fatalf("Nodes(%q)[%d] = %s, want ring position %d", key, j, addr, r.at(want, j))
			}
		}
	}
}

// countingCluster is newCluster with a tally of the requests the nodes
// were sent, by kind; reading the tally resets it.
func countingCluster(t *testing.T, n, replicas int) (*Client, []*Node, func() map[wire.Kind]int) {
	var mu sync.Mutex
	seen := make(map[wire.Kind]int)
	c, nodes := newClusterWith(t, n, replicas, func(h rpc.Handler) rpc.Handler {
		return rpc.HandlerFunc(func(ctx context.Context, m wire.Msg) (wire.Msg, error) {
			mu.Lock()
			seen[m.Kind()]++
			mu.Unlock()
			return h.Handle(ctx, m)
		})
	})
	return c, nodes, func() map[wire.Kind]int {
		mu.Lock()
		defer mu.Unlock()
		out := seen
		seen = make(map[wire.Kind]int)
		return out
	}
}

// TestMultiGetRetriesMissesInBatches: with replication, keys a primary
// does not have are asked of the next replica as one MULTI_GET per
// node, not one GET per key per replica — a GC re-walk asks for
// thousands of legitimately absent keys. A pair that survives only on
// its second replica is still found; a key is absent only if every
// replica said so.
func TestMultiGetRetriesMissesInBatches(t *testing.T) {
	const nodesN, replicas, absent = 4, 2, 200
	c, nodes, tally := countingCluster(t, nodesN, replicas)
	ctx := context.Background()

	survivor, value := nkey("kept by the second replica"), []byte("still here")
	if err := c.Put(ctx, survivor, value); err != nil {
		t.Fatal(err)
	}
	for _, nd := range nodes {
		if nd.Addr() == c.ring.Primary(survivor) {
			if removed, err := nd.deleteBatch([][]byte{survivor}); err != nil || removed != 1 {
				t.Fatalf("dropping the primary copy: %d %v", removed, err)
			}
		}
	}
	keys := [][]byte{survivor}
	for i := 0; i < absent; i++ {
		keys = append(keys, nkey(fmt.Sprintf("never-written/%d", i)))
	}
	tally()

	values, found, err := c.MultiGet(ctx, keys, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !found[0] || !bytes.Equal(values[0], value) {
		t.Fatalf("pair on its second replica only: found %v value %q", found[0], values[0])
	}
	for i := 1; i < len(keys); i++ {
		if found[i] {
			t.Fatalf("absent key %s reported found", keys[i])
		}
	}
	seen := tally()
	if n := seen[wire.KindDHTMultiGetReq]; n > replicas*nodesN || len(seen) != 1 {
		t.Fatalf("%d absent keys cost %v requests, want at most %d MULTI_GETs and nothing else",
			absent, seen, replicas*nodesN)
	}

	// One key, the commonest call: one request per replica asked.
	if _, found, err := c.MultiGet(ctx, keys[1:2], nil, nil, nil); err != nil || found[0] {
		t.Fatalf("single absent key: found %v, %v", found, err)
	}
	if seen := tally(); seen[wire.KindDHTMultiGetReq] != replicas || len(seen) != 1 {
		t.Fatalf("single absent key cost %v requests, want %d MULTI_GETs", seen, replicas)
	}

	// A replica that cannot answer leaves its absent keys undecided: that
	// is an error, not an absence — while a pair its other replica holds
	// is still served.
	var orphan []byte
	for i := 0; orphan == nil; i++ {
		if k := nkey(fmt.Sprintf("primary-down/%d", i)); c.ring.Primary(k) == nodes[0].Addr() {
			orphan = k
		}
	}
	if err := c.Put(ctx, orphan, value); err != nil {
		t.Fatal(err)
	}
	nodes[0].Close()
	if _, _, err := c.MultiGet(ctx, keys[1:], nil, nil, nil); err == nil {
		t.Fatal("keys reported absent although one of their replicas never answered")
	}
	if values, found, err := c.MultiGet(ctx, [][]byte{orphan}, nil, nil, nil); err != nil || !found[0] || !bytes.Equal(values[0], value) {
		t.Fatalf("stored pair with its primary down: found %v, %v", found, err)
	}
}

// TestMultiGetKeysAliasTheirFrame: a decoded MULTI_GET's keys point
// into the request's frame, which the server recycles — poisoned, in
// this package's tests — only once the response is encoded. Readers
// look up batches of stored and never-stored keys while writers churn
// frames of every size through the same two servers, and each handler
// dawdles before its lookups; a key that changed under a lookup would
// turn a hit into a miss or into another key's value.
func TestMultiGetKeysAliasTheirFrame(t *testing.T) {
	c, _ := newClusterWith(t, 2, 1, func(h rpc.Handler) rpc.Handler {
		return rpc.HandlerFunc(func(ctx context.Context, m wire.Msg) (wire.Msg, error) {
			if m.Kind() == wire.KindDHTMultiGetReq {
				for i := 0; i < 4; i++ {
					runtime.Gosched()
				}
			}
			return h.Handle(ctx, m)
		})
	})
	ctx := context.Background()
	const stored = 300
	key := func(i int) []byte { return nkey(fmt.Sprintf("tree/%d/node/%d", i%7, i)) }
	val := func(i int) []byte { return bytes.Repeat([]byte{byte(i), byte(i >> 8)}, 10+i%40) }
	var keys, vals [][]byte
	for i := 0; i < stored; i++ {
		keys, vals = append(keys, key(i)), append(vals, val(i))
	}
	if err := c.MultiPut(ctx, keys, vals); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func(g int) { // reader: every third key of a batch was never stored
			defer wg.Done()
			for round := 0; round < 60; round++ {
				var batch [][]byte
				var want []int
				for k := 0; k < 1+(g+round)%24; k++ {
					i := (g*131 + round*17 + k*29) % stored
					if k%3 == 2 {
						i += stored
					}
					batch, want = append(batch, key(i)), append(want, i)
				}
				got, found, err := c.MultiGet(ctx, batch, nil, nil, nil)
				if err != nil {
					t.Errorf("reader %d: %v", g, err)
					return
				}
				for k, i := range want {
					if found[k] != (i < stored) || (found[k] && !bytes.Equal(got[k], val(i))) {
						t.Errorf("reader %d round %d: key %s: found %v, value %x", g, round, batch[k], found[k], got[k])
						return
					}
				}
			}
		}(g)
		go func(g int) { // writer: fresh pairs, in frames from 100 B to 40 KB
			defer wg.Done()
			for round := 0; round < 60; round++ {
				var ks, vs [][]byte
				for k := 0; k <= round%8; k++ {
					ks = append(ks, nkey(fmt.Sprintf("churn/%d/%d/%d", g, round, k)))
					vs = append(vs, bytes.Repeat([]byte{byte(round)}, 100+round*80))
				}
				if err := c.MultiPut(ctx, ks, vs); err != nil {
					t.Errorf("writer %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
