package dht

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"blobseer/internal/wire"
)

// pairs builds n distinct keys with distinct 64-byte values.
func pairs(prefix string, n int) (keys, values [][]byte) {
	for i := 0; i < n; i++ {
		keys = append(keys, nkey(fmt.Sprintf("%s/%d", prefix, i)))
		values = append(values, bytes.Repeat([]byte{byte(i + 1)}, 64))
	}
	return keys, values
}

// wantStored checks that every pair reads back through the client.
func wantStored(t *testing.T, c *Client, keys, values [][]byte) {
	t.Helper()
	got, found, err := c.MultiGet(context.Background(), keys, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		if !found[i] || !bytes.Equal(got[i], values[i]) {
			t.Fatalf("key %s: found %v, value %x, want %x", keys[i], found[i], got[i], values[i])
		}
	}
}

// TestDurableNodeMultiPutSharesOneCommit is the put-side twin of
// TestDurableNodeBatchDeleteSharesOneCommit: one MULTI_PUT request's
// records are all queued before any is awaited, so a whole update's
// tree nodes cost one write+fsync, not one per node.
func TestDurableNodeMultiPutSharesOneCommit(t *testing.T) {
	r := newDurableNodeRigOpts(t, LogOptions{Sync: true})
	keys, values := pairs("node", 8)
	before := stats(r.node.log)
	if err := r.client().MultiPut(context.Background(), keys, values); err != nil {
		t.Fatal(err)
	}
	after := stats(r.node.log)
	if commits, records := after.Syncs-before.Syncs, after.Appends-before.Appends; commits != 1 || records != 8 {
		t.Fatalf("put batch took %d commits for %d records, want 1 for 8", commits, records)
	}
	// What the node keeps is its own: the request's frame is long gone
	// (and poisoned) by now.
	wantStored(t, r.client(), keys, values)
	r.restart()
	wantStored(t, r.client(), keys, values)
}

// TestDurableNodeGetOverlapsParkedPutCommit pins that nothing a GET
// needs is held across the commit, and that a pair is readable iff
// logged: while a put's batch sits in its write, a GET of an older pair
// returns it and a GET of the very pair being put returns absent; the
// same GET after the acknowledgement finds it. Every step synchronizes
// on channels; a regression deadlocks and the test times out.
func TestDurableNodeGetOverlapsParkedPutCommit(t *testing.T) {
	r := newDurableNodeRigOpts(t, LogOptions{Sync: true})
	ctx := context.Background()
	c := r.client()
	keys := [][]byte{nkey("older pair"), nkey("newer pair")}
	if err := c.Put(ctx, keys[0], []byte("old")); err != nil {
		t.Fatal(err)
	}
	entered, release := r.node.log.GateNextCommit()
	put := make(chan error, 1)
	go func() { put <- c.MultiPut(ctx, keys[1:], [][]byte{[]byte("new")}) }()
	<-entered

	if v, ok, err := c.Get(ctx, keys[0]); err != nil || !ok || string(v) != "old" {
		t.Fatalf("GET of a stored pair while a put is mid-commit = %q %v %v", v, ok, err)
	}
	// The pair being put is not logged yet, so it is not there (nothing
	// can name it before its writer is acknowledged, so nobody but a
	// test looks), and its writer is still waiting.
	if v, ok, err := c.Get(ctx, keys[1]); err != nil || ok {
		t.Fatalf("GET of the pair mid-commit = %q %v %v, want absent", v, ok, err)
	}
	if _, ok := r.node.log.Len(string(keys[1])); ok {
		t.Fatal("pair logged while its commit is parked")
	}
	select {
	case err := <-put:
		t.Fatalf("put acknowledged before its commit finished: %v", err)
	default:
	}
	close(release)
	if err := <-put; err != nil {
		t.Fatal(err)
	}
	if v, ok, err := c.Get(ctx, keys[1]); err != nil || !ok || string(v) != "new" {
		t.Fatalf("GET of the pair after its acknowledgement = %q %v %v", v, ok, err)
	}
	r.restart()
	wantStored(t, r.client(), keys, [][]byte{[]byte("old"), []byte("new")})
}

// TestDurableNodeFailedCommitLeavesNothingVisible: a commit error fails
// the request and withdraws every pair it had made visible; the node is
// not wedged, and the same request goes through afterwards.
func TestDurableNodeFailedCommitLeavesNothingVisible(t *testing.T) {
	r := newDurableNodeRigOpts(t, LogOptions{})
	ctx := context.Background()
	c := r.client()
	keys, values := pairs("doomed", 6)
	keys0, bytes0 := stored(r.node)

	entered, release := r.node.log.GateNextCommit()
	put := make(chan error, 1)
	go func() { put <- c.MultiPut(ctx, keys, values) }()
	<-entered
	release <- errors.New("disk on fire")
	if err := <-put; wire.CodeOf(err) != wire.CodeUnavailable {
		t.Fatalf("put over a failed commit = %v, want CodeUnavailable", err)
	}
	_, found, err := c.MultiGet(ctx, keys, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, ok := range found {
		if ok {
			t.Fatalf("key %s readable after its commit failed", keys[i])
		}
	}
	if k, b := stored(r.node); k != keys0 || b != bytes0 {
		t.Fatalf("stats after a failed put: %d keys %d bytes, want %d %d", k, b, keys0, bytes0)
	}

	if err := c.MultiPut(ctx, keys, values); err != nil {
		t.Fatalf("put after a failed commit: %v", err)
	}
	r.restart()
	wantStored(t, r.client(), keys, values)
}

// TestReputAgainstInFlightPut pins the immutability rule against a put
// that is queued but not yet committed: a re-put queues behind it and is
// answered once the log has the pair to hold it against — a divergent
// one is rejected, an identical one is a success, acknowledged only
// after the log holds the pair (the log's first-record-wins apply
// absorbs both duplicates).
func TestReputAgainstInFlightPut(t *testing.T) {
	r := newDurableNodeRigOpts(t, LogOptions{})
	ctx := context.Background()
	c := r.client()
	key, value := nkey("contested"), []byte("the one value")
	before := stats(r.node.log)

	entered, release := r.node.log.GateNextCommit()
	first := make(chan error, 1)
	go func() { first <- c.Put(ctx, key, value) }()
	<-entered

	other := make(chan error, 1)
	go func() { other <- c.Put(ctx, key, []byte("another value")) }()
	same := make(chan error, 1)
	go func() { same <- c.MultiPut(ctx, [][]byte{key}, [][]byte{value}) }()
	select {
	case err := <-other:
		t.Fatalf("divergent re-put answered before the pair was logged: %v", err)
	case err := <-same:
		t.Fatalf("identical re-put acknowledged before the pair was logged: %v", err)
	case err := <-first:
		t.Fatalf("gated put returned early: %v", err)
	default:
	}
	close(release)
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	if err := <-other; wire.CodeOf(err) != wire.CodeBadRequest {
		t.Fatalf("divergent re-put of an in-flight pair = %v, want CodeBadRequest", err)
	}
	if err := <-same; err != nil {
		t.Fatalf("identical re-put of an in-flight pair: %v", err)
	}
	after := stats(r.node.log)
	if k, recs := after.Keys-before.Keys, after.Appends-before.Appends; k != 1 || recs < 1 || recs > 3 {
		t.Fatalf("%d keys from %d records, want 1 key from 1 to 3", k, recs)
	}
	r.restart()
	wantStored(t, r.client(), [][]byte{key}, [][]byte{value})
}

// TestDivergentPutBehindFailedCommit: a put loses only to a pair the log
// holds. Two divergent puts of one fresh key, the first's commit fails:
// the first is refused as unavailable and leaves nothing, so the second
// is not divergent from anything — it is stored, acknowledged, and
// survives a restart.
func TestDivergentPutBehindFailedCommit(t *testing.T) {
	r := newDurableNodeRigOpts(t, LogOptions{})
	ctx := context.Background()
	c := r.client()
	key, value := nkey("contested"), []byte("the value that is logged")

	entered, release := r.node.log.GateNextCommit()
	first := make(chan error, 1)
	go func() { first <- c.Put(ctx, key, []byte("the value whose commit fails")) }()
	<-entered
	second := make(chan error, 1)
	go func() { second <- c.Put(ctx, key, value) }()
	select {
	case err := <-second:
		t.Fatalf("put of a key whose only other put is unlogged answered early: %v", err)
	default:
	}
	release <- errors.New("disk on fire")
	if err := <-first; wire.CodeOf(err) != wire.CodeUnavailable {
		t.Fatalf("put over a failed commit = %v, want CodeUnavailable", err)
	}
	if err := <-second; err != nil {
		t.Fatalf("put behind a failed commit of another value: %v", err)
	}
	wantStored(t, c, [][]byte{key}, [][]byte{value})
	r.restart()
	wantStored(t, r.client(), [][]byte{key}, [][]byte{value})
}

// TestConcurrentReputsOneWinner races identical and divergent puts of
// one fresh key, on an in-memory and on a durable node: whichever value
// lands first is the value, every put of it succeeds, every put of the
// other is rejected — during the race, after it, and across a restart —
// and the log holds one key. Run under -race.
func TestConcurrentReputsOneWinner(t *testing.T) {
	ctx := context.Background()
	durable := newDurableNodeRigOpts(t, LogOptions{})
	mem, _ := newCluster(t, 1, 1)
	for name, c := range map[string]*Client{"memory": mem, "durable": durable.client()} {
		for round := 0; round < 20; round++ {
			key := nkey(fmt.Sprintf("race/%d", round))
			vals := [2][]byte{[]byte("value A"), []byte("value B, longer")}
			var wg sync.WaitGroup
			var errs [16]error
			for g := range errs {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					if g%4 < 2 {
						errs[g] = c.Put(ctx, key, vals[g%2])
					} else {
						errs[g] = c.MultiPut(ctx, [][]byte{nkey("bystander"), key}, [][]byte{[]byte("x"), vals[g%2]})
					}
				}(g)
			}
			wg.Wait()
			got, ok, err := c.Get(ctx, key)
			if err != nil || !ok {
				t.Fatalf("%s round %d: Get = %v %v", name, round, ok, err)
			}
			for g, err := range errs {
				switch won := bytes.Equal(got, vals[g%2]); {
				case won && err != nil:
					t.Fatalf("%s round %d: put of the stored value failed: %v", name, round, err)
				case !won && wire.CodeOf(err) != wire.CodeBadRequest:
					t.Fatalf("%s round %d: put of the other value = %v, want CodeBadRequest", name, round, err)
				}
			}
		}
	}
	if st := stats(durable.node.log); st.Keys != 21 {
		t.Fatalf("log holds %d keys, want 20 contested + 1 bystander", st.Keys)
	}
	before, _ := stored(durable.node)
	durable.restart()
	if after, _ := stored(durable.node); after != before {
		t.Fatalf("%d keys before the restart, %d after", before, after)
	}
}

// TestKeyRepeatedInsideOneRequest: the second occurrence meets the first
// one's not-yet-committed pair under the same rule as any other re-put.
func TestKeyRepeatedInsideOneRequest(t *testing.T) {
	ctx := context.Background()
	durable := newDurableNodeRigOpts(t, LogOptions{Sync: true})
	mem, _ := newCluster(t, 1, 1)
	for name, c := range map[string]*Client{"memory": mem, "durable": durable.client()} {
		k, v := nkey("twice"), []byte("same bytes")
		if err := c.MultiPut(ctx, [][]byte{k, k}, [][]byte{v, v}); err != nil {
			t.Fatalf("%s: identical repeat: %v", name, err)
		}
		wantStored(t, c, [][]byte{k}, [][]byte{v})

		k2 := nkey("twice, differently")
		err := c.MultiPut(ctx, [][]byte{k2, k2}, [][]byte{v, []byte("other bytes")})
		if wire.CodeOf(err) != wire.CodeBadRequest {
			t.Fatalf("%s: divergent repeat = %v, want CodeBadRequest", name, err)
		}
		// The first occurrence was logged before the second was refused,
		// and what is logged stays visible.
		wantStored(t, c, [][]byte{k2}, [][]byte{v})
	}
	if st := stats(durable.node.log); st.Keys != 2 || st.Syncs > 2 {
		t.Fatalf("durable log: %d keys in %d commits, want 2 keys in at most 2", st.Keys, st.Syncs)
	}
	durable.restart()
	if k, _ := stored(durable.node); k != 2 {
		t.Fatalf("%d keys after the restart, want 2", k)
	}
}

// TestMultiPutValidatesBeforeStoring: a malformed request stores nothing,
// wherever in it the defect sits.
func TestMultiPutValidatesBeforeStoring(t *testing.T) {
	c, nodes := newCluster(t, 1, 1)
	err := c.MultiPut(context.Background(),
		[][]byte{nkey("fine"), nil}, [][]byte{[]byte("v"), []byte("w")})
	if wire.CodeOf(err) != wire.CodeBadRequest {
		t.Fatalf("empty key inside a batch = %v, want CodeBadRequest", err)
	}
	if k, _ := stored(nodes[0]); k != 0 {
		t.Fatalf("%d pairs stored by a rejected request", k)
	}
}
