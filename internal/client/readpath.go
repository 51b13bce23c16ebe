package client

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"blobseer/internal/bufpool"
	"blobseer/internal/core"
	"blobseer/internal/vclock"
	"blobseer/internal/wire"
)

// errFetchAbandoned resolves the cache flight of a lead whose batch was
// never dispatched (its read failed first). Waiters treat any flight
// error as private to the leader and fetch for themselves.
var errFetchAbandoned = errors.New("page fetch abandoned: leading read failed before dispatch")

// This file is the read fetch pipeline. A read resolves its plan in
// three stages, each optional under ReadTuning:
//
//  1. Page cache + single-flight: pages already in memory are copied
//     out; pages another reader is fetching right now are joined, not
//     re-fetched. Cache leaders fetch the whole page so the next reader
//     hits.
//  2. Coalescing: the remaining pages are grouped by replica set and
//     batched into GetPagesReq round trips, so a sequential scan costs
//     few large requests instead of one RPC per page.
//  3. Hedged replica fetch: each batch races its replicas — the first
//     replica gets a head start; when it is slower than the hedge
//     delay, the same request fires at the next replica and the first
//     answer wins. Hard errors fail over immediately, so a dead
//     provider costs no delay and every replica is still tried.
//
// All waiting goes through vclock events and all timing through the
// scheduler clock, so the whole pipeline is deterministic under simnet.

// Read implements READ: it fills buf with len(buf) bytes of snapshot v
// starting at offset. It fails if v is unpublished or the range exceeds
// the snapshot size.
func (c *Client) Read(ctx context.Context, id wire.BlobID, v wire.Version, buf []byte, offset uint64) error {
	if len(buf) == 0 {
		// Still validate that the version is readable.
		_, err := c.Size(ctx, id, v)
		return err
	}
	size, err := c.Size(ctx, id, v) // also rejects unpublished versions
	if err != nil {
		return err
	}
	// offset+len(buf) can wrap uint64 for a huge offset, so compare
	// without the sum.
	if offset > size || uint64(len(buf)) > size-offset {
		return wire.NewError(wire.CodeOutOfBounds,
			"read [%d,+%d) beyond snapshot %d of size %d", offset, len(buf), v, size)
	}
	h, err := c.handle(ctx, id)
	if err != nil {
		return err
	}
	ps := h.pageSize
	firstPage := offset / ps
	lastPage := (offset + uint64(len(buf)) - 1) / ps
	want := core.Range{Start: firstPage, Count: lastPage - firstPage + 1}

	root := core.RootID(v, pagesOf(size, ps))
	plan, err := core.ReadPlan(ctx, h.store, root, want)
	if err != nil {
		return err
	}
	return c.runPlan(ctx, plan, ps, size, buf, offset)
}

// pageJob is one page's share of a read: the byte range wanted from it
// and where those bytes land in the caller's buffer.
type pageJob struct {
	pr       core.PageRead
	start    uint64     // first byte of the page within the blob
	from, to uint64     // wanted range, absolute blob offsets
	dst      []byte     // destination, len == to-from
	wholeLen uint64     // the page's content length in this snapshot
	lead     bool       // fetch the whole page on behalf of the cache
	done     bool       // lead only: the flight has been complete()d
	ent      *pageEntry // lead only: the completed entry, for the copy-out
	wait     vclock.Event
}

// runPlan fetches a read plan into buf (Algorithm 1 line 5, grown up:
// the paper fetches every page with its own request).
func (c *Client) runPlan(ctx context.Context, plan []core.PageRead, ps, size uint64, buf []byte, offset uint64) error {
	end := offset + uint64(len(buf))
	jobs := make([]*pageJob, 0, len(plan))
	var joined []*pageJob
	// Every flight acquire registers below must be resolved exactly once
	// before this read returns, or later readers of the page would join a
	// flight nobody completes and block forever. fetchBatch resolves the
	// flights of batches that run; this cleanup resolves the rest — leads
	// whose batch was never dispatched because an earlier batch (or a
	// cache-hit copy) failed first. It reads the done flags only after
	// every dispatched batch has finished: ParallelLimit waits for its
	// in-flight workers even when it stops on an error.
	defer func() {
		if c.pages == nil {
			return
		}
		for _, j := range jobs {
			if j.lead && !j.done {
				c.pages.complete(j.pr.Page, nil, errFetchAbandoned)
			}
		}
	}()
	for _, pr := range plan {
		j := &pageJob{pr: pr, start: pr.Index * ps}
		j.from = j.start
		if offset > j.from {
			j.from = offset
		}
		j.to = j.start + ps
		if end < j.to {
			j.to = end
		}
		j.dst = buf[j.from-offset : j.to-offset]
		j.wholeLen = ps
		if size-j.start < ps {
			j.wholeLen = size - j.start
		}
		if c.pages == nil {
			jobs = append(jobs, j)
			continue
		}
		ent, wait, _ := c.pages.acquire(pr.Page)
		switch {
		case ent != nil:
			if err := c.copyOut(j, ent); err != nil {
				return err
			}
		case wait != nil:
			j.wait = wait
			joined = append(joined, j)
		default:
			j.lead = true
			jobs = append(jobs, j)
		}
	}

	batches := c.batch(jobs)
	err := vclock.ParallelLimit(c.sched, len(batches), c.tun.MaxFanout, func(i int) error {
		return c.fetchBatch(ctx, batches[i])
	})
	if err != nil {
		return err
	}
	// Joined fetches are led by other readers; wait for their results.
	// No circular wait is possible: a leader resolves its flight from
	// its own fetch, never from a join.
	for _, j := range joined {
		v, err := j.wait.Wait(ctx)
		if err != nil {
			return err
		}
		fr := v.(flightResult)
		if fr.err != nil {
			// The leader's failure may be private to it (its context,
			// its connection); fetch for ourselves before giving up.
			if err := c.fetchBatch(ctx, []*pageJob{{
				pr: j.pr, start: j.start, from: j.from, to: j.to,
				dst: j.dst, wholeLen: j.wholeLen,
			}}); err != nil {
				return err
			}
			continue
		}
		if err := c.copyOut(j, fr.ent); err != nil {
			return err
		}
	}
	return nil
}

// copyOut copies the job's wanted range out of a cache entry the caller
// holds a reference on, and releases that reference.
func (c *Client) copyOut(j *pageJob, ent *pageEntry) error {
	err := copyFromPage(j, ent.data)
	c.pages.release(ent)
	return err
}

// copyFromPage copies the job's wanted range out of whole-page bytes.
func copyFromPage(j *pageJob, page []byte) error {
	lo := j.from - j.start
	hi := j.to - j.start
	if hi > uint64(len(page)) {
		return fmt.Errorf("page %d: cached %d bytes, need %d", j.pr.Index, len(page), hi)
	}
	copy(j.dst, page[lo:hi])
	return nil
}

// batch groups jobs into per-request batches: jobs sharing an identical
// replica set coalesce into one GetPagesReq of at most CoalescePages
// pages (every replica can then serve or hedge the whole batch); the
// rest go one request per page. Batches also stay under the protocol's
// wire.MaxGetPagesBytes response cap, which providers enforce; a lone
// oversized page is not subject to it (it goes out as a GetPageReq).
func (c *Client) batch(jobs []*pageJob) [][]*pageJob {
	limit := c.tun.CoalescePages
	if limit <= 1 {
		out := make([][]*pageJob, 0, len(jobs))
		for _, j := range jobs {
			out = append(out, []*pageJob{j})
		}
		return out
	}
	var out [][]*pageJob
	type openBatch struct {
		idx   int
		bytes uint64
	}
	open := make(map[string]openBatch) // replica-set key -> open batch
	for _, j := range jobs {
		key := strings.Join(j.pr.Providers, "\x00")
		need := j.wantLen()
		if ob, ok := open[key]; ok && len(out[ob.idx]) < limit && ob.bytes+need <= wire.MaxGetPagesBytes {
			out[ob.idx] = append(out[ob.idx], j)
			open[key] = openBatch{idx: ob.idx, bytes: ob.bytes + need}
			continue
		}
		out = append(out, []*pageJob{j})
		open[key] = openBatch{idx: len(out) - 1, bytes: need}
	}
	return out
}

// fetchBatch fetches one batch from the pages' (shared) replica set,
// hedging and failing over between replicas, then lands the bytes in
// the jobs' destinations and resolves any cache flights. Cache flights
// are always resolved, success or failure. Every fetched page buffer is
// given up right after its copy-out: a lead's to the cache entry it
// became (released here), a direct fetch's to the pool.
func (c *Client) fetchBatch(ctx context.Context, jobs []*pageJob) error {
	datas, err := c.fetchHedged(ctx, jobs)
	if err != nil {
		if c.pages != nil {
			for _, j := range jobs {
				if j.lead {
					j.done = true
					c.pages.complete(j.pr.Page, nil, err)
				}
			}
		}
		return err
	}
	// Resolve every lead's flight before copying anything out, so no
	// waiter of a later job waits on this batch's copies. A copy error
	// does not stop the loop: every page is still released.
	for i, j := range jobs {
		if j.lead {
			j.done = true
			j.ent = c.pages.complete(j.pr.Page, datas[i], nil)
		}
	}
	for i, j := range jobs {
		c.rstats.pagesFetched.Add(1)
		if j.lead {
			if cerr := c.copyOut(j, j.ent); err == nil {
				err = cerr
			}
			continue
		}
		copy(j.dst, datas[i])
		bufpool.PutBytes(datas[i])
	}
	return err
}

// raceOutcome is the hedged race's event payload.
type raceOutcome struct {
	attempt int
	datas   [][]byte
	err     error
}

// fetchHedged races the batch's replicas: attempt 0 starts immediately;
// a timer launches the next replica after the hedge delay, once; a
// hard error launches the next replica at once (failover, which is not
// a hedge: a fetch may still try every replica when providers actually
// fail). The first successful attempt wins; the race fails only once
// every replica has failed.
func (c *Client) fetchHedged(ctx context.Context, jobs []*pageJob) ([][]byte, error) {
	reps, healthy := c.orderReplicas(jobs[0].pr)
	if len(reps) == 0 {
		return nil, fmt.Errorf("page %d has no providers", jobs[0].pr.Index)
	}

	done := c.sched.NewEvent()
	var mu sync.Mutex // guards the race bookkeeping below; leaf lock
	delivered := false
	launched := 1 // attempt 0 starts below
	failed := 0
	hedge := -1 // the attempt the timer launched, if it did
	var lastErr error

	var launch func(attempt int)
	launch = func(attempt int) {
		c.sched.Go(func() {
			datas, err := c.fetchFrom(ctx, reps[attempt], jobs)
			mu.Lock()
			if delivered {
				mu.Unlock()
				recycle(datas) // a losing attempt's pages: nobody else holds them
				return
			}
			if err != nil {
				failed++
				lastErr = err
				if launched < len(reps) {
					next := launched
					launched++
					mu.Unlock()
					launch(next) // immediate failover
					return
				}
				if failed == launched {
					delivered = true
					mu.Unlock()
					done.Fire(raceOutcome{err: lastErr})
					return
				}
				mu.Unlock() // other attempts still in flight
				return
			}
			delivered = true
			won := attempt == hedge
			mu.Unlock()
			if won {
				c.rstats.hedgesWon.Add(1)
			}
			done.Fire(raceOutcome{attempt: attempt, datas: datas})
		})
	}
	launch(0)

	// Hedges launch only within the healthy prefix of the replica order:
	// racing a copy whose own tail is the problem cannot win, it only
	// burns the slow provider's bandwidth. Demoted replicas stay
	// reachable through error failover above.
	if delay, ok := c.hedgeDelay(reps); ok && healthy > 1 {
		//blobseer:goroutine detached the hedge timer self-terminates: it sleeps once, re-checks delivered/launched under mu and launches at most one attempt; the fetch itself is joined through the done event above
		c.sched.Go(func() {
			if c.sched.Sleep(delay) != nil {
				return
			}
			mu.Lock()
			if delivered || launched >= healthy {
				mu.Unlock()
				return
			}
			next := launched
			launched++
			hedge = next
			mu.Unlock()
			c.rstats.hedgesFired.Add(1)
			launch(next)
		})
	}

	v, err := done.Wait(ctx)
	if err != nil {
		return nil, err
	}
	out := v.(raceOutcome)
	if out.err != nil {
		return nil, out.err
	}
	return out.datas, nil
}

// fetchFrom issues the batch to one provider — a plain GetPageReq for a
// single page, a coalesced GetPagesReq otherwise — and validates the
// answer. A page the provider does not hold is an error here: the race
// fails this attempt over to a replica that does. The pages it returns
// are pooled buffers the caller owns; on an error it has recycled every
// page the answer carried.
func (c *Client) fetchFrom(ctx context.Context, addr string, jobs []*pageJob) ([][]byte, error) {
	c.rstats.fetchRPCs.Add(1)
	if len(jobs) == 1 {
		j := jobs[0]
		off, length := j.wireRange()
		resp, err := c.rpc.Call(ctx, addr, &wire.GetPageReq{Page: j.pr.Page, Offset: off, Length: length})
		if err != nil {
			return nil, fmt.Errorf("page %d from %s: %w", j.pr.Index, addr, err)
		}
		data := resp.(*wire.GetPageResp).Data
		if uint64(len(data)) != j.wantLen() {
			bufpool.PutBytes(data)
			return nil, fmt.Errorf("page %d from %s: got %d bytes, want %d",
				j.pr.Index, addr, len(data), j.wantLen())
		}
		return [][]byte{data}, nil
	}
	c.rstats.coalRPCs.Add(1)
	c.rstats.coalPages.Add(uint64(len(jobs)))
	ranges := make([]wire.PageRange, len(jobs))
	for i, j := range jobs {
		off, length := j.wireRange()
		ranges[i] = wire.PageRange{Page: j.pr.Page, Offset: off, Length: length}
	}
	resp, err := c.rpc.Call(ctx, addr, &wire.GetPagesReq{Ranges: ranges})
	if err != nil {
		return nil, fmt.Errorf("pages from %s: %w", addr, err)
	}
	r := resp.(*wire.GetPagesResp)
	if len(r.Found) != len(jobs) || len(r.Data) != len(jobs) {
		recycle(r.Data)
		return nil, fmt.Errorf("pages from %s: %d answers for %d ranges", addr, len(r.Found), len(jobs))
	}
	for i, j := range jobs {
		if !r.Found[i] {
			recycle(r.Data)
			return nil, fmt.Errorf("page %d from %s: %w", j.pr.Index, addr,
				wire.NewError(wire.CodeNotFound, "page not on this replica"))
		}
		if got := len(r.Data[i]); uint64(got) != j.wantLen() {
			recycle(r.Data)
			return nil, fmt.Errorf("page %d from %s: got %d bytes, want %d",
				j.pr.Index, addr, got, j.wantLen())
		}
	}
	return r.Data, nil
}

// wireRange is the byte range the job puts on the wire: cache leaders
// fetch the whole page so every later reader hits memory; direct
// fetches ask for exactly the wanted bytes.
func (j *pageJob) wireRange() (off, length uint32) {
	if j.lead {
		return 0, wire.WholePage
	}
	return uint32(j.from - j.start), uint32(j.to - j.from)
}

func (j *pageJob) wantLen() uint64 {
	if j.lead {
		return j.wholeLen
	}
	return j.to - j.from
}

// orderReplicas picks the replica order for one page: rotated by the
// page id so concurrent readers spread over the copies, then replicas
// whose observed tail latency is far above the best are demoted to the
// end — a known-slow provider serves as failover, not first choice.
// healthy is the length of the non-demoted prefix; hedges must stay
// inside it.
func (c *Client) orderReplicas(pr core.PageRead) (reps []string, healthy int) {
	reps = pr.Providers
	if len(reps) <= 1 {
		return reps, len(reps)
	}
	spread := int(pageSpread(pr.Page) % uint64(len(reps)))
	out := make([]string, 0, len(reps))
	for i := range reps {
		out = append(out, reps[(spread+i)%len(reps)])
	}
	p99s := make([]time.Duration, len(out))
	best := time.Duration(-1)
	for i, addr := range out {
		if p99, ok := c.rpc.LatencyQuantile(addr, 0.99); ok {
			p99s[i] = p99
			if best < 0 || p99 < best {
				best = p99
			}
		}
	}
	if best < 0 {
		return out, len(out)
	}
	fast := out[:0]
	var slow []string
	for i, addr := range out {
		if p99s[i] > 4*best {
			slow = append(slow, addr)
		} else {
			fast = append(fast, addr)
		}
	}
	return append(fast, slow...), len(fast)
}

// pageSpread mixes the page id's counter half (the writer-local sequence
// number) into a rotation key. The counter — not the id's random prefix,
// which is constant per writer and would rotate a whole blob the same
// way — makes consecutive pages land on different replicas; the
// splitmix64 finalizer breaks any correlation with the allocator's
// striding.
func pageSpread(id wire.PageID) uint64 {
	x := binary.LittleEndian.Uint64(id[8:])
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hedgeDelay resolves the hedge policy for a fetch over reps: a fixed
// positive HedgeDelay is used as-is; zero means adaptive — twice the
// best observed p99 across the replica set (floored), so a slow first
// choice is judged against the latency another copy could deliver, not
// against its own tail. No hedging until enough calls have completed to
// estimate a p99; negative disables hedging entirely.
func (c *Client) hedgeDelay(reps []string) (time.Duration, bool) {
	switch {
	case c.tun.HedgeDelay < 0:
		return 0, false
	case c.tun.HedgeDelay > 0:
		return c.tun.HedgeDelay, true
	}
	best := time.Duration(-1)
	for _, addr := range reps {
		if p99, ok := c.rpc.LatencyQuantile(addr, 0.99); ok && (best < 0 || p99 < best) {
			best = p99
		}
	}
	if best < 0 {
		return 0, false
	}
	d := 2 * best
	if d < minHedgeDelay {
		d = minHedgeDelay
	}
	return d, true
}
