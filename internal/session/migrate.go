package session

import (
	"context"
	"fmt"
	"sync"
	"time"

	"telecast/internal/model"
	"telecast/internal/overlay"
	"telecast/internal/telemetry"
	"telecast/internal/trace"
)

// This file implements cross-region viewer migration: the shard-to-shard
// handoff the paper's static GSC/LSC split leaves unmodeled. A viewer that
// re-homes mid-session (device roaming, network re-homing, geo-failover)
// moves between two independently-locked LSC shards in two phases:
//
//  1. The source LSC snapshots the viewer's view composition and
//     κ-subscription state, detaches it from its trees (victims recovered
//     exactly as on departure), and the GSC downgrades the route to the
//     in-migration sentinel — concurrent Join keeps ErrViewerExists while
//     Leave, ChangeView, and rival migrations get the typed ErrMigrating.
//  2. The destination LSC re-admits the preserved ViewRequest under the
//     region-aware allocator and the route is atomically rebound. The
//     source ring carries the detach event and the destination ring the
//     re-admit, so each region's stream stays in shard-processing order.
//
// CDN egress moves through the substrate's atomic allocate/release counters:
// the source's release lands before the destination's reserve, so the
// Δ-bounded budget is never transiently double-counted — the price is that
// a rival admission can take the freed capacity mid-handoff, which is
// exactly the rejection the failure path is total against. Every Migrate
// ends in one of three states: rebound on the destination, restored on the
// source (possibly as a rejected-but-routed record when the home shard can
// no longer serve it either), or departed with a RejectionError under the
// DepartOnReject policy.

// MigrateRequest describes one cross-region handoff.
type MigrateRequest struct {
	// To is the destination region whose LSC takes the viewer over.
	To trace.Region
	// Reason labels the handoff on the event stream (e.g. "roaming",
	// "evacuation"); empty is fine.
	Reason string
	// DepartOnReject switches the failure policy: instead of restoring the
	// viewer on its source shard when the destination rejects it, the
	// viewer departs cleanly — route dropped, node released, victims
	// already recovered by the detach — and the returned RejectionError
	// reports why the destination refused it.
	DepartOnReject bool
}

// MigrateOutcome reports how a handoff ended.
type MigrateOutcome struct {
	// From and To are the source region and the requested destination.
	From, To trace.Region
	// Result is the destination admission when the handoff landed, the
	// source re-admission when the viewer was restored, and nil when the
	// viewer departed (or when the migration was a same-region no-op).
	Result *overlay.JoinResult
	// Restored reports that the destination refused the migrant and the
	// viewer was re-admitted on its source shard; Departed that the
	// DepartOnReject policy removed it instead.
	Restored bool
	Departed bool
	// Delay is the handoff protocol latency: re-registration with the GSC,
	// detach round trip to the source LSC, handoff to the destination LSC,
	// overlay information back to the viewer, and the subscription-start
	// round trip to the farthest new parent. Zero unless the viewer landed
	// on the destination.
	Delay time.Duration
}

// Migrate moves a live viewer from its current LSC shard to the region's of
// the request — the shard-to-shard handoff protocol. It is safe for
// concurrent use with every other control-plane operation; per-viewer
// exclusivity is enforced through the routing table (ErrMigrating).
//
// Errors: ErrUnknownViewer for unrouted IDs, ErrMigrating when another
// handoff owns the viewer, ErrUnknownRegion for destinations the substrate
// does not define, ErrMatrixExhausted when the destination region has no
// free latency node (the viewer is untouched on its source), context errors
// on cancellation (a viewer already detached is restored on its source
// first), and *RejectionError when the destination refuses the migrant — in
// that case the outcome reports whether the viewer was restored or, under
// DepartOnReject, departed.
func (c *Controller) Migrate(ctx context.Context, id model.ViewerID, req MigrateRequest) (*MigrateOutcome, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("session migrate %s: %w", id, err)
	}
	var tr telemetry.OpTrace
	c.tel.StartOp(&tr, telemetry.OpMigrate)
	dst, ok := c.lscs[req.To]
	if !ok {
		tr.Finish(-1, string(id), telemetry.OutcomeError)
		return nil, fmt.Errorf("session migrate %s: %w %d", id, ErrUnknownRegion, req.To)
	}
	src, err := c.routes.takeForMigration(id)
	if err != nil {
		tr.Finish(-1, string(id), telemetry.OutcomeError)
		return nil, fmt.Errorf("session migrate %s: %w", id, err)
	}
	// The in-flight counter makes Validate fail fast (typed) instead of
	// reporting phantom invariant violations for the detached viewer.
	c.migrations.Add(1)
	defer c.migrations.Add(-1)

	if src == dst {
		// Already home: nothing moves, the route is rebound as-is.
		c.routes.bind(id, src)
		tr.Phase(telemetry.PhaseRoute)
		tr.Finish(int(src.Region), string(id), telemetry.OutcomeNoop)
		return &MigrateOutcome{From: src.Region, To: dst.Region}, nil
	}
	// The moved viewer needs a placement in its new region before anything
	// is torn down, so an exhausted destination fails the migration with
	// the session untouched. Strict: a cross-region fallback node would
	// belong to a different shard than the one re-admitting the viewer.
	dstNode, ok := c.nodes.acquireInStrict(req.To)
	if !ok {
		c.routes.bind(id, src)
		tr.Finish(int(src.Region), string(id), telemetry.OutcomeError)
		return nil, fmt.Errorf("session migrate %s: destination region %d: %w", id, req.To, ErrMatrixExhausted)
	}
	tr.Phase(telemetry.PhaseRoute)

	// Phase 1: detach on the source shard. From here the handoff must end
	// rebound, restored, or departed — never a half-state.
	st, err := src.extract(id, dst.Region, req.Reason, &tr)
	srcNode := st.Info.Node
	if err != nil {
		c.nodes.release(dstNode)
		c.routes.bind(id, src)
		tr.Finish(int(src.Region), string(id), telemetry.OutcomeError)
		return nil, fmt.Errorf("session migrate %s: %w", id, err)
	}
	if err := ctx.Err(); err != nil {
		// Cancelled between the phases: the viewer is already detached, so
		// restoring it on the source is the only total option.
		out := c.settleRejected(src, dst, st, srcNode, dstNode, nil, req)
		tr.Finish(int(src.Region), string(id), telemetry.OutcomeError)
		return out, fmt.Errorf("session migrate %s: %w", id, err)
	}

	// Phase 2: re-admission on the destination with the preserved request.
	res, worst, err := dst.admitMigrant(dstNode, st, src.Region, req.Reason, false, &tr)
	if err != nil {
		out := c.settleRejected(src, dst, st, srcNode, dstNode, nil, req)
		tr.Finish(int(dst.Region), string(id), telemetry.OutcomeError)
		return out, fmt.Errorf("session migrate %s: %w", id, err)
	}
	if res.Admitted {
		c.nodes.release(srcNode)
		c.routes.bind(id, dst)
		delay := c.migrateProtocolDelay(dstNode, src.NodeIdx, dst.NodeIdx, worst)
		c.noteCDNPeak(dst)
		tr.Finish(int(dst.Region), string(id), telemetry.OutcomeOK)
		return &MigrateOutcome{From: src.Region, To: dst.Region, Result: res, Delay: delay}, nil
	}
	// Destination refused the migrant; its shard kept no record (the
	// admitMigrant keepIfRejected=false contract).
	rej := &RejectionError{Viewer: id, Reason: res.Reason}
	out := c.settleRejected(src, dst, st, srcNode, dstNode, rej, req)
	tr.Finish(int(dst.Region), string(id), telemetry.OutcomeRejected)
	return out, rej
}

// settleRejected finishes a handoff whose destination phase did not land:
// under DepartOnReject (with an actual rejection) the viewer departs
// cleanly, otherwise it is restored on its source shard — re-admitted from
// the same preserved state, kept as a rejected-but-routed record when even
// the source refuses it now.
func (c *Controller) settleRejected(src, dst *LSC, st overlay.MigrationState, srcNode, dstNode int, rej *RejectionError, req MigrateRequest) *MigrateOutcome {
	id := st.Info.ID
	c.nodes.release(dstNode)
	// departMigrant is the one copy of the clean-exit sequence: node back
	// to the pool, route gone, departure sequenced on the source ring.
	departMigrant := func() *MigrateOutcome {
		c.nodes.release(srcNode)
		c.routes.drop(id)
		src.noteMigrationDeparture(id)
		return &MigrateOutcome{From: src.Region, To: dst.Region, Departed: true}
	}
	if rej != nil && req.DepartOnReject {
		return departMigrant()
	}
	reason := ReasonNone
	if rej != nil {
		reason = rej.Reason
	}
	res, err := src.restoreMigrant(srcNode, st, dst.Region, reason)
	if err != nil {
		// The source shard cannot take its own viewer back (a duplicate
		// record would be a routing bug); depart totally rather than leak.
		return departMigrant()
	}
	c.routes.bind(id, src)
	return &MigrateOutcome{From: src.Region, To: dst.Region, Result: res, Restored: true}
}

// migrateProtocolDelay adds up the legs of the handoff protocol, mirroring
// joinProtocolDelay's Fig. 5 accounting from the viewer's new location:
//
//	viewer → GSC    re-registration after the move (+ GSC processing)
//	GSC ⇄ src LSC   detach order and state snapshot round trip
//	GSC → dst LSC   handoff with preserved state (+ LSC processing)
//	dst LSC → viewer overlay information
//	viewer ⇄ parent subscription-start round trip to the farthest parent
func (c *Controller) migrateProtocolDelay(vNew, srcL, dstL int, worstParentRTT time.Duration) time.Duration {
	g := c.gscNode
	return c.delay(vNew, g) + c.cfg.GSCProc +
		c.delay(g, srcL) + c.delay(srcL, g) +
		c.delay(g, dstL) + c.cfg.LSCProc +
		c.delay(dstL, vNew) +
		worstParentRTT
}

// groupMigrations buckets a migration batch by destination region, each
// group in input order.
func (c *Controller) groupMigrations(migs []Migration, out []MigrateBatchOutcome) map[trace.Region][]int {
	perDest := make(map[trace.Region][]int, len(c.lscs))
	for i, mig := range migs {
		out[i].ID = mig.ID
		perDest[mig.Req.To] = append(perDest[mig.Req.To], i)
	}
	return perDest
}

// Migration pairs a viewer with its request for MigrateBatch.
type Migration struct {
	ID  model.ViewerID
	Req MigrateRequest
}

// MigrateBatchOutcome is the per-migration result of MigrateBatch, in input
// order.
type MigrateBatchOutcome struct {
	ID      model.ViewerID
	Outcome *MigrateOutcome
	Err     error
}

// MigrateBatch performs many handoffs at once, grouped by destination
// shard: each destination's group runs on its own goroutine — migrations
// into one region serialize on that shard's admission lock anyway — so a
// batch spanning R destination regions re-admits R shards wide while the
// source-side extracts interleave on their own shards' locks. No shard lock
// is ever held across the two phases, so groups cannot deadlock however
// sources and destinations overlap. Results are in input order.
//
// Cancelling the context stops dispatching: viewers not yet extracted keep
// their session and report the context error, and a viewer cancelled
// mid-handoff is restored on its source shard (Migrate's contract).
func (c *Controller) MigrateBatch(ctx context.Context, migs []Migration) []MigrateBatchOutcome {
	out := make([]MigrateBatchOutcome, len(migs))
	perDest := c.groupMigrations(migs, out)
	var wg sync.WaitGroup
	for _, idxs := range perDest {
		wg.Add(1)
		go func(idxs []int) {
			defer wg.Done()
			for _, i := range idxs {
				out[i].Outcome, out[i].Err = c.Migrate(ctx, migs[i].ID, migs[i].Req)
			}
		}(idxs)
	}
	wg.Wait()
	return out
}
