package session

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"telecast/internal/model"
	"telecast/internal/telemetry"
	"telecast/internal/trace"
)

// RegionHint optionally steers a join's placement toward a specific LSC
// region. The zero value leaves placement to the latency substrate (the
// paper's geo-location step). Hints are best-effort: when the hinted region
// has no free latency node the join falls back to the default placement —
// regional load is a preference, not an admission constraint.
type RegionHint struct {
	set    bool
	region trace.Region
}

// InRegion returns a hint placing the viewer in region r.
func InRegion(r trace.Region) RegionHint { return RegionHint{set: true, region: r} }

// Region reports the hinted region; ok is false for the zero (no-preference)
// hint.
func (h RegionHint) Region() (trace.Region, bool) { return h.region, h.set }

// JoinRequest is one admission request, used by Admit and JoinBatch.
type JoinRequest struct {
	ID           model.ViewerID
	InboundMbps  float64
	OutboundMbps float64
	View         model.View
	// Region optionally pins the viewer to an LSC region; the zero value
	// keeps the default latency-substrate placement.
	Region RegionHint
}

// BatchOutcome is the per-request result of a batch operation, in input
// order. For joins, Outcome is set whenever the shard processed the request
// — including admission-control rejections, where Err is the matching
// *RejectionError; a nil Outcome means the request never reached a shard
// (duplicate ID, exhausted matrix, cancelled batch) and Err says why.
// Departures set only Err.
type BatchOutcome struct {
	ID      model.ViewerID
	Outcome *JoinOutcome
	Err     error
}

// minStripeWork is the smallest number of batch entries worth a prepare
// worker: below it the goroutine hand-off costs more than the striped route
// and allocator operations save.
const minStripeWork = 64

// batchWorkers picks the prepare-stripe width for an n-entry batch: one
// worker per minStripeWork entries, capped by GOMAXPROCS (the loop is
// CPU-bound) and by the routing-table stripe count. On a single-CPU box —
// or for a small batch — it returns 1 and the batch runs the exact serial
// loop, with no goroutines and no extra allocation.
func batchWorkers(n int) int {
	w := runtime.GOMAXPROCS(0)
	if per := n / minStripeWork; w > per {
		w = per
	}
	if w > routeStripes {
		w = routeStripes
	}
	if w < 1 {
		w = 1
	}
	return w
}

// stripeIndices distributes the indices 0..n-1 over workers by the routing
// table's 64-way viewer-ID hash: every index of one stripe goes to the same
// worker, in input order. Entries that share a routing stripe therefore
// never race each other — duplicate IDs inside one batch resolve first-wins
// exactly as the serial loop did — and two workers never contend on a
// routing-table stripe lock.
func stripeIndices(n, workers int, id func(int) model.ViewerID) [][]int {
	buckets := make([][]int, workers)
	per := n/workers + 1
	for w := range buckets {
		buckets[w] = make([]int, 0, per)
	}
	for i := 0; i < n; i++ {
		w := int(viewerStripe(id(i))) % workers
		buckets[w] = append(buckets[w], i)
	}
	return buckets
}

// runStriped executes fn(i) for every index, striped by viewer ID across
// batchWorkers(n) goroutines; with one worker it degenerates to the plain
// serial loop.
func runStriped(n int, id func(int) model.ViewerID, fn func(int)) {
	workers := batchWorkers(n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	for _, idxs := range stripeIndices(n, workers, id) {
		if len(idxs) == 0 {
			continue
		}
		wg.Add(1)
		go func(idxs []int) {
			defer wg.Done()
			for _, i := range idxs {
				fn(i)
			}
		}(idxs)
	}
	wg.Wait()
}

// shares lists batch positions grouped by owning shard, in region order
// and in input order within a shard: region r's share is
// order[bounds[r]:bounds[r+1]].
type shares struct {
	order  []int
	bounds []int
}

// share returns the input positions region r owns, in input order.
func (s shares) share(r int) []int { return s.order[s.bounds[r]:s.bounds[r+1]] }

// groupByRegion groups the positions 0..n-1 by the shard owner(i) names,
// skipping the nil ones, with one counting pass over their regions.
func groupByRegion(n, regions int, owner func(i int) *LSC) shares {
	// bounds[r] first counts region r's share, then (summed) marks where it
	// ends; the backward fill walks each end down to its share's start.
	bounds := make([]int, regions+1)
	for i := range n {
		if lsc := owner(i); lsc != nil {
			bounds[lsc.Region]++
		}
	}
	for r := 1; r < len(bounds); r++ {
		bounds[r] += bounds[r-1]
	}
	order := make([]int, bounds[regions])
	for i := n - 1; i >= 0; i-- {
		if lsc := owner(i); lsc != nil {
			bounds[lsc.Region]--
			order[bounds[lsc.Region]] = i
		}
	}
	return shares{order: order, bounds: bounds}
}

// preparedBatch is a join batch after its GSC half. joins[i] is request
// i's prepared join, with a nil lsc where prepare failed; the shares group
// the prepared positions by owning shard.
type preparedBatch struct {
	shares
	joins []preparedJoin
}

// prepareBatch runs the GSC half of a join batch — duplicate check, route
// claim, latency-node placement — striped by viewer-ID hash
// across prepare workers, then groups the survivors by owning shard.
// Failures (and cancellation observed during prepare) are recorded in out;
// prepared entries await admit or abandon.
func (c *Controller) prepareBatch(ctx context.Context, reqs []JoinRequest, out []BatchOutcome) preparedBatch {
	joins := make([]preparedJoin, len(reqs))
	runStriped(len(reqs), func(i int) model.ViewerID { return reqs[i].ID }, func(i int) {
		out[i].ID = reqs[i].ID
		if err := ctx.Err(); err != nil {
			out[i].Err = fmt.Errorf("session join %s: %w", reqs[i].ID, err)
			return
		}
		p, err := c.prepare(reqs[i])
		if err != nil {
			out[i].Err = fmt.Errorf("session join %s: %w", reqs[i].ID, err)
			return
		}
		joins[i] = p
	})
	grouped := groupByRegion(len(joins), len(c.lscs), func(i int) *LSC { return joins[i].lsc })
	return preparedBatch{shares: grouped, joins: joins}
}

// JoinBatch admits many viewers at once, exploiting the sharded control
// plane: requests are routed by the GSC in parallel — the prepare loop is
// striped by the same viewer-ID hash as the routing table, so W workers
// claim routes and place latency nodes with no shared lock — then grouped by
// owning LSC, and each shard's group is admitted in input order on its own
// goroutine. A batch spanning R regions runs R admissions wide with no lock
// contention between shards. Results are returned in input order.
//
// Cancelling the context stops dispatching: requests not yet admitted are
// unwound completely (route claim, latency node) and report
// the context error, while already-admitted viewers stay joined and report
// normally. CDN egress is only ever held inside a single shard admission,
// so a cancelled batch can never leak Δ-bounded reservations.
func (c *Controller) JoinBatch(ctx context.Context, reqs []JoinRequest) []BatchOutcome {
	out := make([]BatchOutcome, len(reqs))
	// The whole-batch traces time the two pipeline stages against each
	// other (prepare fan-out vs. shard admission); the per-item joins keep
	// their own OpJoin traces inside.
	var ptr telemetry.OpTrace
	c.tel.StartOp(&ptr, telemetry.OpBatchPrepare)
	batch := c.prepareBatch(ctx, reqs, out)
	ptr.Finish(-1, "batch", telemetry.OutcomeOK)
	var wg sync.WaitGroup
	for r := range len(c.lscs) {
		share := batch.share(r)
		if len(share) == 0 {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			var atr telemetry.OpTrace
			c.tel.StartOp(&atr, telemetry.OpBatchAdmit)
			for _, i := range share {
				if err := ctx.Err(); err != nil {
					c.abandon(batch.joins[i])
					out[i].Err = fmt.Errorf("session join %s: %w", reqs[i].ID, err)
					continue
				}
				out[i].Outcome, out[i].Err = c.admit(batch.joins[i])
			}
			atr.Finish(r, "batch", telemetry.OutcomeOK)
		}()
	}
	wg.Wait()
	return out
}

// takenBatch is a departure batch after its GSC half. owners[i] is the
// shard whose route request i took, nil where the take failed; the shares
// group the taken positions by owning shard.
type takenBatch struct {
	shares
	owners []*LSC
}

// takeBatch runs the GSC half of a departure batch: the route-take loop,
// striped by viewer-ID hash like prepareBatch, then the taken viewers
// grouped by owning shard. Failures (and cancellation observed during the
// take) are recorded in out.
func (c *Controller) takeBatch(ctx context.Context, ids []model.ViewerID, out []BatchOutcome) takenBatch {
	owners := make([]*LSC, len(ids))
	runStriped(len(ids), func(i int) model.ViewerID { return ids[i] }, func(i int) {
		id := ids[i]
		out[i].ID = id
		if err := ctx.Err(); err != nil {
			out[i].Err = fmt.Errorf("session leave %s: %w", id, err)
			return
		}
		lsc, err := c.takeRoute(id)
		if err != nil {
			out[i].Err = fmt.Errorf("session leave %s: %w", id, err)
			return
		}
		owners[i] = lsc
	})
	grouped := groupByRegion(len(owners), len(c.lscs), func(i int) *LSC { return owners[i] })
	return takenBatch{shares: grouped, owners: owners}
}

// DepartBatch removes many viewers at once: the route-take loop is striped
// by viewer-ID hash like JoinBatch's prepare, then the taken viewers are
// grouped by owning shard and each shard's share departs in input order on
// its own goroutine, shares dispatched in region order. Results are
// returned in input order. Cancelling the context stops dispatching;
// viewers not yet departed keep their session — their taken route is bound
// back to the owning shard before the outcome reports the context error —
// and remain leavable.
func (c *Controller) DepartBatch(ctx context.Context, ids []model.ViewerID) []BatchOutcome {
	out := make([]BatchOutcome, len(ids))
	batch := c.takeBatch(ctx, ids, out)
	var wg sync.WaitGroup
	for r := range len(c.lscs) {
		share := batch.share(r)
		if len(share) == 0 {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, i := range share {
				id, lsc := ids[i], batch.owners[i]
				var tr telemetry.OpTrace
				c.tel.StartOp(&tr, telemetry.OpLeave)
				if err := ctx.Err(); err != nil {
					// Undo the route claim so the viewer stays leavable. The
					// rebind happens before the outcome is written: once the
					// caller reads the error the route is already bound, and
					// a racing Migrate either lost the take (ErrUnknownViewer
					// while we held the claim) or runs strictly after the
					// rebind on a fully-bound route.
					c.bindRoute(id, lsc)
					out[i].Err = fmt.Errorf("session leave %s: %w", id, err)
					tr.Finish(int(lsc.Region), string(id), telemetry.OutcomeError)
					continue
				}
				out[i].Err = c.depart(lsc, id, &tr)
			}
		}()
	}
	wg.Wait()
	return out
}
