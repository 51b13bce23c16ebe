package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"blobseer/internal/wire"
)

func TestRootSpan(t *testing.T) {
	cases := []struct{ size, want uint64 }{
		{0, 1}, {1, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {7, 8}, {8, 8}, {9, 16},
		{1023, 1024}, {1024, 1024}, {1025, 2048}, {1 << 40, 1 << 40}, {1<<40 + 1, 1 << 41},
	}
	for _, c := range cases {
		if got := RootSpan(c.size); got != c.want {
			t.Errorf("RootSpan(%d) = %d, want %d", c.size, got, c.want)
		}
	}
}

func TestQuickRootSpanProperties(t *testing.T) {
	f := func(size uint64) bool {
		size %= 1 << 50
		s := RootSpan(size)
		// Power of two, covers size, and half of it would not.
		if s&(s-1) != 0 {
			return false
		}
		if size > 0 && s < size {
			return false
		}
		if size > 1 && s/2 >= size {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestRangeOps(t *testing.T) {
	a := Range{Start: 4, Count: 4} // [4,8)
	if !a.Intersects(Range{Start: 7, Count: 10}) {
		t.Error("overlap not detected")
	}
	if a.Intersects(Range{Start: 8, Count: 1}) {
		t.Error("adjacent ranges do not intersect")
	}
	if a.Intersects(Range{Start: 0, Count: 4}) {
		t.Error("adjacent ranges do not intersect (left)")
	}
	if !a.Contains(Range{Start: 5, Count: 2}) {
		t.Error("containment not detected")
	}
	if a.Contains(Range{Start: 5, Count: 4}) {
		t.Error("false containment")
	}
	if a.End() != 8 {
		t.Errorf("End = %d", a.End())
	}
}

func TestQuickRangeIntersectSymmetric(t *testing.T) {
	f := func(aStart, aCount, bStart, bCount uint16) bool {
		a := Range{Start: uint64(aStart), Count: uint64(aCount%64) + 1}
		b := Range{Start: uint64(bStart), Count: uint64(bCount%64) + 1}
		if a.Intersects(b) != b.Intersects(a) {
			return false
		}
		// Intersection iff some page is in both.
		brute := false
		for p := a.Start; p < a.End(); p++ {
			if p >= b.Start && p < b.End() {
				brute = true
				break
			}
		}
		return a.Intersects(b) == brute
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestNodeIDChildren(t *testing.T) {
	id := NodeID{Version: 5, Offset: 8, Span: 8}
	l, r := id.Left(3), id.Right(4)
	if l != (NodeID{Version: 3, Offset: 8, Span: 4}) {
		t.Errorf("Left = %v", l)
	}
	if r != (NodeID{Version: 4, Offset: 12, Span: 4}) {
		t.Errorf("Right = %v", r)
	}
	if !(NodeID{Span: 1}).IsLeaf() || (NodeID{Span: 2}).IsLeaf() {
		t.Error("IsLeaf wrong")
	}
}

func TestNodeEncodeDecode(t *testing.T) {
	leaf := Node{Leaf: true, Page: wire.PageID{1, 2, 3}, Providers: []string{"node-7:data"}}
	inner := Node{VL: 12, VR: wire.NoVersion}
	for _, n := range []Node{leaf, inner} {
		got, err := DecodeNode(n.AppendTo(nil))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, n) {
			t.Errorf("round trip: got %+v want %+v", got, n)
		}
	}
	if _, err := DecodeNode([]byte{99}); err == nil {
		t.Error("bad tag accepted")
	}
	if _, err := DecodeNode(append(leaf.AppendTo(nil), 0)); err == nil {
		t.Error("trailing bytes accepted")
	}
	if _, err := DecodeNode(inner.AppendTo(nil)[:5]); err == nil {
		t.Error("truncated node accepted")
	}
}

// TestPaperFigure1 replays the paper's running example exactly:
// (a) write 4 pages -> snapshot 1; (b) overwrite pages 1-2 (0-indexed)
// -> snapshot 2; (c) append 1 page -> snapshot 3.
func TestPaperFigure1(t *testing.T) {
	b := newBlobSim(t)

	// (a) Initial write of four pages.
	u1, pages1 := b.assign(0, 4)
	b.build(u1, pages1)
	b.publish()
	// Tree: 4 leaves + 2 inner + root = 7 nodes.
	if got := b.st.nodeCount(); got != 7 {
		t.Fatalf("after v1: %d nodes, want 7", got)
	}
	b.verify(1, Range{Start: 0, Count: 4})

	// (b) Overwrite the middle two pages.
	u2, pages2 := b.assign(1, 2)
	b.build(u2, pages2)
	b.publish()
	// New grey nodes: leaves (1,1),(2,1), inner (0,2),(2,2), root (0,4) = 5.
	if got := b.st.nodeCount(); got != 12 {
		t.Fatalf("after v2: %d nodes, want 12", got)
	}
	// Weaving: grey (0,2) points left at the white leaf, right at grey.
	grey02 := b.st.nodes[NodeID{Version: 2, Offset: 0, Span: 2}]
	if grey02.VL != 1 || grey02.VR != 2 {
		t.Fatalf("grey (0,2) children = v%d,v%d; want v1,v2", grey02.VL, grey02.VR)
	}
	grey22 := b.st.nodes[NodeID{Version: 2, Offset: 2, Span: 2}]
	if grey22.VL != 2 || grey22.VR != 1 {
		t.Fatalf("grey (2,2) children = v%d,v%d; want v2,v1", grey22.VL, grey22.VR)
	}
	// Both snapshots remain fully readable (snapshot isolation).
	b.verify(1, Range{Start: 0, Count: 4})
	b.verify(2, Range{Start: 0, Count: 4})

	// (c) Append one page; the tree grows to span 8.
	u3, pages3 := b.assign(^uint64(0), 1)
	if u3.Pages.Start != 4 {
		t.Fatalf("append assigned offset %d, want 4", u3.Pages.Start)
	}
	b.build(u3, pages3)
	b.publish()
	// Black nodes: leaf (4,1), inner (4,2),(4,4), root (0,8) = 4 new.
	if got := b.st.nodeCount(); got != 16 {
		t.Fatalf("after v3: %d nodes, want 16", got)
	}
	// The black root's left child is the grey root of snapshot 2.
	blackRoot := b.st.nodes[NodeID{Version: 3, Offset: 0, Span: 8}]
	if blackRoot.VL != 2 {
		t.Fatalf("black root left child = v%d, want v2 (the old root)", blackRoot.VL)
	}
	if blackRoot.VR != 3 {
		t.Fatalf("black root right child = v%d, want v3", blackRoot.VR)
	}
	// The incomplete right subtree has holes.
	black44 := b.st.nodes[NodeID{Version: 3, Offset: 4, Span: 4}]
	if black44.VR != wire.NoVersion {
		t.Fatalf("black (4,4) right child = v%d, want hole", black44.VR)
	}
	black42 := b.st.nodes[NodeID{Version: 3, Offset: 4, Span: 2}]
	if black42.VL != 3 || black42.VR != wire.NoVersion {
		t.Fatalf("black (4,2) children = v%d,v%d; want v3,hole", black42.VL, black42.VR)
	}
	b.verify(3, Range{Start: 0, Count: 5})
	b.verify(1, Range{Start: 0, Count: 4})
	b.verify(2, Range{Start: 0, Count: 4})
}

func TestSequentialRandomUpdates(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	b := newBlobSim(t)
	// First update creates the blob.
	b.update(0, uint64(rng.Intn(16)+1))
	for i := 0; i < 60; i++ {
		size := b.model[b.published].size
		if rng.Intn(3) == 0 {
			// Append 1..32 pages.
			b.update(^uint64(0), uint64(rng.Intn(32)+1))
			continue
		}
		// Overwrite a random in-bounds range (may extend past the end).
		start := uint64(rng.Intn(int(size + 1)))
		count := uint64(rng.Intn(16) + 1)
		b.update(start, count)
	}
	b.verifyAll()

	// Random sub-range reads across random versions.
	for i := 0; i < 200; i++ {
		v := wire.Version(rng.Intn(int(b.published)) + 1)
		size := b.model[v].size
		if size == 0 {
			continue
		}
		start := uint64(rng.Intn(int(size)))
		count := uint64(rng.Intn(int(size-start))) + 1
		b.verify(v, Range{Start: start, Count: count})
	}
}

// TestConcurrentAssignThenBuild reproduces the paper's core concurrency
// claim (§4.2): several updates get versions assigned before any of them
// writes metadata; each receives the in-flight descriptors of the lower
// versions and can weave correctly no matter the completion order.
func TestConcurrentAssignThenBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		b := newBlobSim(t)
		b.update(0, uint64(rng.Intn(12)+4)) // base blob

		// Assign a batch of concurrent updates.
		batch := rng.Intn(6) + 2
		type job struct {
			u     Update
			pages []PageWrite
		}
		jobs := make([]job, 0, batch)
		for j := 0; j < batch; j++ {
			size := b.pendingSize
			var u Update
			var pw []PageWrite
			if rng.Intn(3) == 0 {
				u, pw = b.assign(^uint64(0), uint64(rng.Intn(8)+1))
			} else {
				start := uint64(rng.Intn(int(size)))
				count := uint64(rng.Intn(8) + 1)
				u, pw = b.assign(start, count)
			}
			jobs = append(jobs, job{u, pw})
		}
		// Build metadata in a random order — the paper's point is that
		// no build needs to wait for an earlier one.
		for _, idx := range rng.Perm(batch) {
			b.build(jobs[idx].u, jobs[idx].pages)
		}
		// Publish in version order, verifying every snapshot as it lands.
		for j := 0; j < batch; j++ {
			b.publish()
		}
		b.verifyAll()
	}
}

func TestAppendGrowthDoublesSpan(t *testing.T) {
	b := newBlobSim(t)
	b.update(0, 1)
	for i := 0; i < 9; i++ {
		b.update(^uint64(0), uint64(1)<<uint(i)) // grow 1,2,4,... pages
	}
	b.verifyAll()
	// Final size 512 pages? 1+1+2+...+256 = 512.
	if got := b.model[b.published].size; got != 512 {
		t.Fatalf("final size %d", got)
	}
}

func TestMetadataSharingIsLogarithmic(t *testing.T) {
	// Overwriting one page of a large blob must create only ~log2(n) new
	// nodes, not rebuild the tree (§4.1 "rebuilding a full tree ... would
	// be space- and time-inefficient").
	b := newBlobSim(t)
	const n = 1024
	b.update(0, n)
	before := b.st.nodeCount()
	b.update(17, 1)
	created := b.st.nodeCount() - before
	if created != 11 { // leaf + 10 ancestors (span 2..1024)
		t.Fatalf("single-page overwrite created %d nodes, want 11", created)
	}
	b.verifyAll()
}

func TestReadPlanBatchesPerLevel(t *testing.T) {
	// Full read of a 256-page blob must need exactly depth+1 = 9 fetch
	// round trips, not one per node.
	b := newBlobSim(t)
	b.update(0, 256)
	b.st.gets = 0
	b.verify(1, Range{Start: 0, Count: 256})
	if b.st.gets != 9 {
		t.Fatalf("full read used %d round trips, want 9", b.st.gets)
	}
}

func TestReadPlanErrors(t *testing.T) {
	b := newBlobSim(t)
	b.update(0, 4)
	ctx := context.Background()

	// Empty read is trivially fine.
	if got, err := ReadPlan(ctx, b.st, RootID(1, 4), Range{}); err != nil || len(got) != 0 {
		t.Fatalf("empty read: %v %v", got, err)
	}
	// Outside the root.
	if _, err := ReadPlan(ctx, b.st, RootID(1, 4), Range{Start: 3, Count: 2}); err == nil {
		t.Fatal("read past root accepted")
	}
	// Through a hole: grow the tree with an append, then read a range
	// the snapshot covers structurally but that was never written.
	b.update(^uint64(0), 1) // size 5, root span 8
	if _, err := ReadPlan(ctx, b.st, RootID(2, 5), Range{Start: 5, Count: 2}); err == nil {
		t.Fatal("read through hole accepted")
	}
}

// TestNodeEncodedLenIsExact: the size PutNodes reserves per node is the
// size AppendTo writes, for every layout, and appending leaves what was
// already in the buffer alone.
func TestNodeEncodedLenIsExact(t *testing.T) {
	for _, n := range []Node{
		{VL: 7, VR: wire.NoVersion},
		{Leaf: true, Page: wire.PageID{1, 2}, Providers: []string{"10.0.0.1:4403"}},
		{Leaf: true, Page: wire.PageID{3}, Providers: []string{"a:1", "", "a-much-longer-address:40400"}},
	} {
		enc := n.AppendTo(nil)
		if n.EncodedLen() != len(enc) {
			t.Fatalf("%+v: EncodedLen %d, encoding is %d bytes", n, n.EncodedLen(), len(enc))
		}
		if got := n.AppendTo([]byte("prefix")); string(got) != "prefix"+string(enc) {
			t.Fatalf("%+v: AppendTo = %x, want the prefix then %x", n, got, enc)
		}
	}
}

func TestPlanUpdateValidation(t *testing.T) {
	if _, err := PlanUpdate(Update{Version: 1}, nil); err == nil {
		t.Error("empty update accepted")
	}
	if _, err := PlanUpdate(Update{
		Version: 1, Pages: Range{Start: 0, Count: 2}, NewSizePages: 2,
	}, make([]PageWrite, 1)); err == nil {
		t.Error("page count mismatch accepted")
	}
	if _, err := PlanUpdate(Update{
		Version: 1, Pages: Range{Start: 0, Count: 4}, NewSizePages: 2,
	}, make([]PageWrite, 4)); err == nil {
		t.Error("size below update end accepted")
	}
}

func TestFinalizeRejectsUnresolved(t *testing.T) {
	// An update into the middle of an existing blob needs published
	// borders; finalizing without them must fail loudly.
	plan, err := PlanUpdate(Update{
		Version:            2,
		Pages:              Range{Start: 1, Count: 1},
		NewSizePages:       8,
		Published:          1,
		PublishedSizePages: 8,
	}, make([]PageWrite, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.NeedPublished()) == 0 {
		t.Fatal("expected unresolved borders")
	}
	if _, _, err := plan.Finalize(nil); err == nil {
		t.Fatal("Finalize with missing borders accepted")
	}
}

func TestResolvePublishedDirect(t *testing.T) {
	b := newBlobSim(t)
	b.update(0, 8)          // v1
	b.update(2, 2)          // v2
	b.update(^uint64(0), 1) // v3: size 9, root span 16
	ctx := context.Background()

	res, err := resolvePublished(ctx, b.st, 3, 9, []Range{
		{Start: 0, Count: 2},  // untouched since v1
		{Start: 2, Count: 2},  // rewritten by v2
		{Start: 2, Count: 1},  // leaf level, rewritten by v2
		{Start: 8, Count: 1},  // the appended page: v3
		{Start: 0, Count: 16}, // the whole root
		{Start: 10, Count: 2}, // hole
		{Start: 12, Count: 4}, // hole
	})
	if err != nil {
		t.Fatal(err)
	}
	want := map[Range]wire.Version{
		{Start: 0, Count: 2}:  1,
		{Start: 2, Count: 2}:  2,
		{Start: 2, Count: 1}:  2,
		{Start: 8, Count: 1}:  3,
		{Start: 0, Count: 16}: 3,
		{Start: 10, Count: 2}: wire.NoVersion,
		{Start: 12, Count: 4}: wire.NoVersion,
	}
	for r, v := range want {
		if res[r] != v {
			t.Errorf("resolve %v = v%d, want v%d", r, res[r], v)
		}
	}

	// Empty blob: everything is a hole.
	res, err = resolvePublished(ctx, b.st, 0, 0, []Range{{Start: 0, Count: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if res[Range{Start: 0, Count: 4}] != wire.NoVersion {
		t.Error("empty published tree should resolve to holes")
	}

	// Range outside the tree is an input error.
	if _, err := resolvePublished(ctx, b.st, 3, 9, []Range{{Start: 16, Count: 4}}); err == nil {
		t.Error("out-of-tree range accepted")
	}
}

// TestResolvePublishedMatchesModel holds the border descent against an
// oracle that never looks at a tree: the version covering an aligned
// range in snapshot pv is the highest version <= pv whose update range
// intersects it, or a hole if none does. Random histories of appends
// and overwrites, resolved against random published versions (trees are
// immutable, so any of them is fair) with target sets that nest, repeat,
// sit under holes and include the root range; out-of-tree input must be
// an error and unaligned input must not panic. The descent is one
// batched fetch per level, whatever the targets.
func TestResolvePublishedMatchesModel(t *testing.T) {
	ctx := context.Background()
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b := newBlobSim(t)
		updates := []Range{{}} // index = version
		for n := 2 + rng.Intn(30); n > 0; n-- {
			start, count := ^uint64(0), uint64(1+rng.Intn(9))
			if b.pendingSize > 0 && rng.Intn(3) > 0 {
				start = uint64(rng.Int63n(int64(b.pendingSize) + 1))
			}
			at := start
			if at == ^uint64(0) {
				at = b.pendingSize
			}
			b.update(start, count)
			updates = append(updates, Range{Start: at, Count: count})
		}
		oracle := func(pv wire.Version, r Range) wire.Version {
			for v := pv; v >= 1; v-- {
				if updates[v].Intersects(r) {
					return v
				}
			}
			return wire.NoVersion
		}

		for round := 0; round < 20; round++ {
			pv := wire.Version(1 + rng.Intn(int(b.published)))
			size := b.model[pv].size
			root := RootID(pv, size).Range()
			aligned := func() Range {
				span := uint64(1) << rng.Intn(bitsLen(root.Count))
				return Range{Start: uint64(rng.Int63n(int64(root.Count/span))) * span, Count: span}
			}
			var targets []Range
			for n := 1 + rng.Intn(12); n > 0; n-- {
				r := aligned()
				targets = append(targets, r)
				switch rng.Intn(4) {
				case 0: // a duplicate
					targets = append(targets, r)
				case 1: // a child nested inside it
					if r.Count > 1 {
						half := r.Count / 2
						targets = append(targets, Range{Start: r.Start + half*uint64(rng.Intn(2)), Count: half})
					}
				case 2: // its parent
					if r.Count < root.Count {
						targets = append(targets, Range{Start: r.Start - r.Start%(2*r.Count), Count: 2 * r.Count})
					}
				}
			}
			if rng.Intn(3) == 0 {
				targets = append(targets, root)
			}
			rng.Shuffle(len(targets), func(i, j int) { targets[i], targets[j] = targets[j], targets[i] })
			asked := append([]Range(nil), targets...)

			before := b.st.gets
			got, err := resolvePublished(ctx, b.st, pv, size, targets)
			if err != nil {
				t.Fatalf("seed %d v%d %v: %v", seed, pv, targets, err)
			}
			if depth := bitsLen(root.Count) - 1; b.st.gets-before > depth {
				t.Fatalf("seed %d v%d: %d fetches for a tree of depth %d", seed, pv, b.st.gets-before, depth)
			}
			if !reflect.DeepEqual(targets, asked) {
				t.Fatalf("seed %d: ResolvePublished reordered its input", seed)
			}
			for _, r := range targets {
				want := oracle(pv, r)
				if r == root {
					want = pv
				}
				if v, ok := got[r]; !ok || v != want {
					t.Fatalf("seed %d v%d (size %d): %v resolved to v%d (present %v), model says v%d",
						seed, pv, size, r, v, ok, want)
				}
			}

			// Beside and beyond the tree: an input error, whatever else is asked.
			for _, out := range []Range{
				{Start: root.Count, Count: 1},
				{Start: 0, Count: 2 * root.Count},
				{Start: root.Count - 1, Count: 2},
			} {
				if _, err := resolvePublished(ctx, b.st, pv, size, append(targets, out)); err == nil {
					t.Fatalf("seed %d v%d: out-of-tree range %v accepted", seed, pv, out)
				}
			}
			// Unaligned garbage inside the tree: an error or a hole, never a
			// panic or a wrong version for the well-formed targets beside it.
			junk := Range{Start: uint64(rng.Int63n(int64(root.Count))), Count: uint64(rng.Intn(4))}
			if junk.End() <= root.Count {
				if got, err := resolvePublished(ctx, b.st, pv, size, append(targets, junk)); err == nil {
					for _, r := range targets {
						if want := oracle(pv, r); r != root && got[r] != want {
							t.Fatalf("seed %d v%d: %v resolved to v%d beside junk %v, model says v%d",
								seed, pv, r, got[r], junk, want)
						}
					}
				}
			}
		}
	}
}

// bitsLen is bits.Len64 for the powers of two the tests deal in.
func bitsLen(pow2 uint64) int {
	n := 0
	for ; pow2 > 0; pow2 >>= 1 {
		n++
	}
	return n
}

func TestQuickSequentialModelEquivalence(t *testing.T) {
	// Property: after any sequence of contiguity-respecting updates, every
	// snapshot reads back exactly per the model. Driven by testing/quick
	// as a randomized op-sequence generator.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := newBlobSim(t)
		b.update(0, uint64(rng.Intn(8)+1))
		for i := 0; i < 12; i++ {
			size := b.model[b.published].size
			if rng.Intn(2) == 0 {
				b.update(^uint64(0), uint64(rng.Intn(6)+1))
			} else {
				start := uint64(rng.Intn(int(size)))
				b.update(start, uint64(rng.Intn(6)+1))
			}
		}
		b.verifyAll()
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestNodeEncodeDecodeReplicated(t *testing.T) {
	leaf := Node{Leaf: true, Page: wire.PageID{9, 9}, Providers: []string{"a:1", "b:2", "c:3"}}
	got, err := DecodeNode(leaf.AppendTo(nil))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, leaf) {
		t.Fatalf("round trip: got %+v want %+v", got, leaf)
	}
	// Single-provider leaves must keep the compact paper-layout encoding.
	single := Node{Leaf: true, Page: wire.PageID{1}, Providers: []string{"a:1"}}
	multi := Node{Leaf: true, Page: wire.PageID{1}, Providers: []string{"a:1", "b:2"}}
	if len(single.AppendTo(nil)) >= len(multi.AppendTo(nil)) {
		t.Fatal("single-replica leaf encoding is not the compact form")
	}
	// A leaf with no providers must be rejected on decode.
	bad := append([]byte{2}, make([]byte, 16)...) // tag leafR, page id, count 0
	bad = append(bad, 0)
	if _, err := DecodeNode(bad); err == nil {
		t.Fatal("leaf with zero providers accepted")
	}
}

func TestNodeEncodeDecodeQuick(t *testing.T) {
	f := func(page [16]byte, provs []string, vl, vr uint64, leaf bool, nProv uint8) bool {
		var n Node
		if leaf {
			// Build 1..4 provider addresses; quick gives arbitrary strings.
			cnt := int(nProv)%4 + 1
			ps := make([]string, cnt)
			for i := range ps {
				if i < len(provs) {
					ps[i] = provs[i]
				}
			}
			n = Node{Leaf: true, Page: wire.PageID(page), Providers: ps}
		} else {
			n = Node{VL: vl, VR: vr}
		}
		got, err := DecodeNode(n.AppendTo(nil))
		return err == nil && reflect.DeepEqual(got, n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
