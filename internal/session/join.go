package session

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"telecast/internal/model"
	"telecast/internal/overlay"
	"telecast/internal/telemetry"
)

// JoinOutcome reports an admission attempt together with the protocol
// latency the viewer experienced.
type JoinOutcome struct {
	Result *overlay.JoinResult
	// Delay is the viewer join latency of Fig. 14(c): registration with
	// the GSC, LSC hand-off, overlay construction, and the stream
	// subscription exchange with the farthest parent. Set for admitted and
	// rejected joins alike.
	Delay time.Duration
	// LSCRegion identifies the cluster that handled the viewer.
	LSCRegion int
}

// preparedJoin is a routed-but-not-yet-admitted viewer: ID claimed, node
// placed, shard chosen; the shard registers it at admission. It is passed by
// value — one lives per in-flight join, and keeping it off the heap matters
// on the admission fast path.
type preparedJoin struct {
	lsc  *LSC
	st   viewerState
	view model.View
	// tr spans the whole join — prepare through admit (or abandon) — so the
	// trace survives the batch pipeline's prepare→admit handoff. Copies are
	// fine: exactly one of admit or abandon settles a prepared join, and
	// Finish disarms the copy it runs on.
	tr telemetry.OpTrace
}

// prepare runs the GSC half of the join protocol: duplicate check, node
// placement (honoring the request's region hint), and geo-routing to the
// owning shard. It is cheap and thread-safe; the expensive admission —
// registry insertion included — runs on the shard.
func (c *Controller) prepare(req JoinRequest) (preparedJoin, error) {
	var p preparedJoin
	c.tel.StartOp(&p.tr, telemetry.OpJoin)
	id := req.ID
	if err := c.claimID(id); err != nil {
		p.tr.Finish(-1, string(id), telemetry.OutcomeError)
		return preparedJoin{}, err
	}
	nodeIdx, ok := c.nodes.acquireIn(req.Region)
	if !ok {
		c.dropRoute(id)
		p.tr.Finish(-1, string(id), telemetry.OutcomeError)
		return preparedJoin{}, fmt.Errorf("%w (%d nodes)", ErrMatrixExhausted, c.cfg.Latency.Nodes())
	}
	p.tr.Phase(telemetry.PhaseRoute)
	lsc := c.lscFor(nodeIdx)
	st := viewerState{
		nodeIdx: nodeIdx,
		info:    overlay.ViewerInfo{ID: id, InboundMbps: req.InboundMbps, OutboundMbps: req.OutboundMbps},
	}
	p.tr.Phase(telemetry.PhasePrepare)
	// The route stays a claim (nil) until the shard admits the viewer, so
	// a racing Leave or ChangeView sees ErrUnknownViewer instead of
	// operating on a half-joined one.
	p.lsc, p.st, p.view = lsc, st, req.View
	return p, nil
}

// abandon unwinds a prepared join that will never be admitted (cancelled
// batch entries): the route claim and the latency node return to their
// pools. No registry entry or CDN egress was held yet — both only happen
// inside the shard admission — so nothing can leak there.
func (c *Controller) abandon(p preparedJoin) {
	c.dropRoute(p.st.info.ID)
	c.nodes.release(p.st.nodeIdx)
	p.tr.Finish(int(p.lsc.Region), string(p.st.info.ID), telemetry.OutcomeError)
}

// admit runs the shard half of the join protocol on the prepared viewer's
// owning LSC and returns the Fig. 14(c) protocol latency in the outcome. An
// admission-control rejection returns the outcome for metrics alongside a
// *RejectionError carrying the cause.
func (c *Controller) admit(p preparedJoin) (*JoinOutcome, error) {
	id := p.st.info.ID
	region := int(p.lsc.Region)
	res, worst, err := p.lsc.join(p.st, p.view, &p.tr)
	if err != nil {
		c.dropRoute(id)
		c.nodes.release(p.st.nodeIdx)
		p.tr.Finish(region, string(id), telemetry.OutcomeError)
		return nil, fmt.Errorf("session join %s: %w", id, err)
	}
	c.bindRoute(id, p.lsc)
	delay := c.joinProtocolDelay(p.st.nodeIdx, p.lsc.NodeIdx, worst)
	c.noteCDNPeak(p.lsc)
	out := &JoinOutcome{Result: res, Delay: delay, LSCRegion: region}
	if !res.Admitted {
		p.tr.Finish(region, string(id), telemetry.OutcomeRejected)
		return out, &RejectionError{Viewer: id, Reason: res.Reason}
	}
	p.tr.Finish(region, string(id), telemetry.OutcomeOK)
	return out, nil
}

// Join runs the full viewer join protocol of Fig. 5. The viewer is assigned
// the next latency-matrix node, routed to its region's LSC, and admitted
// through the overlay construction pipeline; the outcome carries the
// protocol delay for the overhead evaluation.
//
// Errors: ErrViewerExists for duplicate IDs, ErrMatrixExhausted when the
// latency substrate is full, context errors on cancellation, and
// *RejectionError (matching ErrRejected) when admission control refuses the
// request — in that last case the outcome is still returned, with
// Result.Admitted false, so callers keep their metrics.
func (c *Controller) Join(ctx context.Context, id model.ViewerID, inboundMbps, outboundMbps float64, view model.View) (*JoinOutcome, error) {
	return c.Admit(ctx, JoinRequest{ID: id, InboundMbps: inboundMbps, OutboundMbps: outboundMbps, View: view})
}

// Admit is the request-struct form of Join: it runs the same protocol but
// honors every JoinRequest field, including the optional region hint that
// steers placement to a specific LSC. Errors are identical to Join's.
func (c *Controller) Admit(ctx context.Context, req JoinRequest) (*JoinOutcome, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("session join %s: %w", req.ID, err)
	}
	p, err := c.prepare(req)
	if err != nil {
		return nil, fmt.Errorf("session join %s: %w", req.ID, err)
	}
	if err := ctx.Err(); err != nil {
		c.abandon(p)
		return nil, fmt.Errorf("session join %s: %w", req.ID, err)
	}
	return c.admit(p)
}

// joinProtocolDelay adds up the legs of Fig. 5 plus the stream-subscription
// exchange of Fig. 6:
//
//	viewer → GSC   registration
//	GSC → LSC      forwarded join request (+ GSC processing)
//	LSC → viewer   join OK
//	viewer → LSC   view request with resources
//	(LSC processing: bandwidth allocation + topology formation)
//	LSC → viewer   overlay information (parents learn in parallel and
//	               never later than the viewer path dominates)
//	viewer ⇄ parent subscription-start round trip to the farthest parent
func (c *Controller) joinProtocolDelay(v, l int, worstParentRTT time.Duration) time.Duration {
	g := c.gscNode
	return c.delay(v, g) + c.cfg.GSCProc +
		c.delay(g, l) +
		c.delay(l, v) +
		c.delay(v, l) + c.cfg.LSCProc +
		c.delay(l, v) +
		worstParentRTT
}

// Leave removes a viewer; departures trigger the same victim recovery as
// view changes (§VI). It returns ErrUnknownViewer for IDs the GSC has no
// route for, ErrMigrating for viewers owned by a live cross-region handoff,
// and ErrShardDown when the owning shard is killed — in that case the route
// is preserved so the departure can be retried after recovery.
func (c *Controller) Leave(ctx context.Context, id model.ViewerID) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("session leave %s: %w", id, err)
	}
	var tr telemetry.OpTrace
	c.tel.StartOp(&tr, telemetry.OpLeave)
	lsc, err := c.takeRoute(id)
	if err != nil {
		tr.Finish(-1, string(id), telemetry.OutcomeError)
		return fmt.Errorf("session leave %s: %w", id, err)
	}
	tr.Phase(telemetry.PhaseRoute)
	return c.depart(lsc, id, &tr)
}

// depart is the shard half of every departure, single or batched: the
// caller has taken the viewer's route from lsc and started tr. A killed
// shard (ErrShardDown) cannot process the departure, so the viewer is bound
// back and stays routed for recovery to rebuild and a retry to succeed; any
// other failure drops the route.
func (c *Controller) depart(lsc *LSC, id model.ViewerID, tr *telemetry.OpTrace) error {
	nodeIdx, err := lsc.leave(id, tr)
	if err != nil {
		if errors.Is(err, ErrShardDown) {
			c.bindRoute(id, lsc)
		} else {
			c.dropRoute(id)
		}
		tr.Finish(int(lsc.Region), string(id), telemetry.OutcomeError)
		return fmt.Errorf("session leave %s: %w", id, err)
	}
	c.dropRoute(id)
	c.nodes.release(nodeIdx)
	tr.Finish(int(lsc.Region), string(id), telemetry.OutcomeOK)
	return nil
}

// ViewChangeOutcome reports a view change and its two latencies.
type ViewChangeOutcome struct {
	Result *overlay.JoinResult
	// SwitchDelay is the user-perceived view change latency: the time
	// until the new view's streams flow from the CDN (the fast first
	// process of §VI). The paper reports this within 500 ms.
	SwitchDelay time.Duration
	// BackgroundDelay is the completion time of the second process (the
	// normal join running in background), after which the viewer is
	// switched to the P2P overlay.
	BackgroundDelay time.Duration
	// FastPathUsed reports whether the CDN had capacity to serve the
	// instantaneous switch; without it the change waits for the join.
	FastPathUsed bool
}

// ChangeView runs the paper's two-process view change (§III-B, §VI): the
// streams of the new view are served from the CDN immediately while the
// normal join (bandwidth allocation + overlay formation + subscription)
// proceeds in the background; once done, the viewer switches to the overlay.
//
// Errors mirror Join: ErrUnknownViewer for unrouted IDs, ErrMigrating for
// viewers owned by a live cross-region handoff, context errors on
// cancellation, and *RejectionError with the outcome when the re-admission
// fails admission control.
func (c *Controller) ChangeView(ctx context.Context, id model.ViewerID, view model.View) (*ViewChangeOutcome, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("session view change %s: %w", id, err)
	}
	var tr telemetry.OpTrace
	c.tel.StartOp(&tr, telemetry.OpViewChange)
	lsc, err := c.lookupRoute(id)
	if err != nil {
		tr.Finish(-1, string(id), telemetry.OutcomeError)
		return nil, fmt.Errorf("session view change %s: %w", id, err)
	}
	// Fast path feasibility: the paper streams the new view from the CDN
	// instantaneously; in strict mode the transient edge bandwidth is
	// checked against the spare egress. It is a hint, not a hold: the
	// transient is absorbed by the edge caches (§VI), so it must neither
	// compete with the viewer's own background rejoin nor pollute the
	// peak-egress metric the way a real allocation would.
	fast := true
	if c.cfg.StrictFastPath {
		req := model.ComposeView(c.cfg.Producers, view, c.cfg.CutoffDF)
		var fastBW float64
		for _, rs := range req.Streams {
			fastBW += rs.Stream.BitrateMbps
		}
		fast = c.cdn.CanServe(fastBW)
	}

	// The fast-path feasibility probe above is GSC-side work, so it lands
	// in the route segment together with the route lookup.
	tr.Phase(telemetry.PhaseRoute)
	res, worst, nodeIdx, err := lsc.changeView(id, view, &tr)
	if err != nil {
		tr.Finish(int(lsc.Region), string(id), telemetry.OutcomeError)
		return nil, fmt.Errorf("session view change %s: %w", id, err)
	}

	// Fast path: request to LSC, LSC redirects the CDN edge (co-located
	// with the LSC node), first frames flow edge → viewer.
	switchDelay := c.delay(nodeIdx, lsc.NodeIdx) + c.cfg.LSCProc + c.delay(lsc.NodeIdx, nodeIdx)
	background := c.joinProtocolDelay(nodeIdx, lsc.NodeIdx, worst)
	if !fast {
		switchDelay = background
	}
	c.noteCDNPeak(lsc)
	out := &ViewChangeOutcome{
		Result:          res,
		SwitchDelay:     switchDelay,
		BackgroundDelay: background,
		FastPathUsed:    fast,
	}
	if !res.Admitted {
		tr.Finish(int(lsc.Region), string(id), telemetry.OutcomeRejected)
		return out, &RejectionError{Viewer: id, Reason: res.Reason}
	}
	tr.Finish(int(lsc.Region), string(id), telemetry.OutcomeOK)
	return out, nil
}

// Stats aggregates the per-LSC overlay snapshots into session-wide totals.
// It describes the session's live state only: the protocol delays of
// Fig. 14(c) are not kept here but returned by each op (JoinOutcome.Delay,
// ViewChangeOutcome.SwitchDelay, MigrateOutcome.Delay), so a caller that
// wants their distribution collects it from the outcomes it holds, as
// workload.Result does for a run.
type Stats struct {
	Overlay overlay.Snapshot
	// AdaptationDrops is the cumulative count of stream subscriptions
	// dropped by the delay-layer adaptation (the overlay's drop log,
	// surfaced as a counter).
	AdaptationDrops uint64
}

// Stats merges every LSC's snapshot. CDN usage is global, so it is taken
// once from the shared substrate.
func (c *Controller) Stats() Stats {
	var agg overlay.Snapshot
	for _, lsc := range c.lscs {
		s := lsc.Snapshot()
		agg.Viewers += s.Viewers
		agg.Admitted += s.Admitted
		agg.Rejected += s.Rejected
		agg.StreamsRequested += s.StreamsRequested
		agg.StreamsAccepted += s.StreamsAccepted
		agg.LiveStreams += s.LiveStreams
		agg.ViaCDN += s.ViaCDN
		agg.ViaP2P += s.ViaP2P
		agg.Groups += s.Groups
		agg.ResubscribeExhausted += s.ResubscribeExhausted
		agg.MaxLayerPerViewer = append(agg.MaxLayerPerViewer, s.MaxLayerPerViewer...)
		agg.AcceptedPerViewer = append(agg.AcceptedPerViewer, s.AcceptedPerViewer...)
	}
	agg.CDNUsage = c.cdn.Snapshot()
	return Stats{Overlay: agg, AdaptationDrops: c.AdaptationDrops()}
}

// SampleStats aggregates the per-LSC counters the periodic samplers consume:
// Stats minus its expensive parts — no sorted per-viewer distributions and
// no per-stream CDN map copy (those fields are left nil/empty). One counters
// pass per shard plus three atomic CDN loads, which is what lets a
// wall-clock runner sample every simulated second without the sampling cost
// rivaling the admissions it measures.
func (c *Controller) SampleStats() Stats {
	var agg overlay.Snapshot
	for _, lsc := range c.lscs {
		s := lsc.QuickSnapshot()
		agg.Viewers += s.Viewers
		agg.Admitted += s.Admitted
		agg.Rejected += s.Rejected
		agg.StreamsRequested += s.StreamsRequested
		agg.StreamsAccepted += s.StreamsAccepted
		agg.LiveStreams += s.LiveStreams
		agg.ViaCDN += s.ViaCDN
		agg.ViaP2P += s.ViaP2P
		agg.Groups += s.Groups
		agg.ResubscribeExhausted += s.ResubscribeExhausted
	}
	agg.CDNUsage = c.cdn.UsageTotals()
	return Stats{Overlay: agg, AdaptationDrops: c.AdaptationDrops()}
}

// validateAttempts bounds the online validator's snapshot-and-retry loop. A
// sustained write load can keep bumping shard epochs forever; after this
// many unstable attempts Validate gives up and reports nothing rather than
// spinning or raising phantom violations.
const validateAttempts = 16

// epochVector snapshots every shard's epoch counter, indexed by region. Two
// identical vectors around a validation pass prove no shard processed an
// admission-relevant transition while the pass ran.
func (c *Controller) epochVector() []uint64 {
	vec := make([]uint64, c.cfg.Latency.NumRegions())
	for region, lsc := range c.lscs {
		vec[int(region)] = lsc.epoch.Load()
	}
	return vec
}

func epochsEqual(a, b []uint64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// validateOnce runs one full validation pass: every live shard's overlay
// invariants plus the global CDN accounting (the egress implied by all trees
// must exactly match what the CDN has allocated). Killed shards are skipped
// on both sides of the ledger — their implied egress was released back to
// the substrate at kill time.
func (c *Controller) validateOnce() error {
	implied := make(map[model.StreamID]float64)
	for region, lsc := range c.lscs {
		if lsc.down.Load() {
			continue
		}
		if err := lsc.Validate(); err != nil {
			return fmt.Errorf("lsc region %d: %w", region, err)
		}
		for id, mbps := range lsc.CDNImplied() {
			implied[id] += mbps
		}
	}
	usage := c.cdn.Snapshot()
	for id, want := range implied {
		if diff := usage.PerStreamMbps[id] - want; diff > 1e-6 || diff < -1e-6 {
			return fmt.Errorf("cdn accounting: stream %v allocated %v Mbps, trees imply %v",
				id, usage.PerStreamMbps[id], want)
		}
	}
	for id, got := range usage.PerStreamMbps {
		if _, ok := implied[id]; !ok && got > 1e-6 {
			return fmt.Errorf("cdn accounting: stream %v has %v Mbps with no tree roots", id, got)
		}
	}
	return nil
}

// Validate checks every LSC's overlay invariants and the global CDN
// accounting online, without assuming a quiescent session. Each shard bumps
// an epoch counter under its owner lock on every admission-relevant
// transition; the validator snapshots the epoch vector, runs a full pass,
// and accepts the verdict only if the vector (and the in-flight migration
// and recovery counters) did not change around it — otherwise the pass may
// have interleaved with a transition and is retried. Mid-flight handoffs
// and recoveries are by definition non-quiescent windows — a migrating
// viewer's egress legitimately lives on neither shard between the detach
// and the re-admit — so those attempts are skipped rather than raised as
// phantom violations (previously a fail-fast ErrMigrationInFlight). After
// validateAttempts unstable attempts Validate returns nil: no verdict, not
// a violation.
func (c *Controller) Validate() error {
	for attempt := 0; attempt < validateAttempts; attempt++ {
		if c.migrations.Load() > 0 || c.recovering.Load() > 0 {
			runtime.Gosched()
			continue
		}
		before := c.epochVector()
		err := c.validateOnce()
		if c.migrations.Load() > 0 || c.recovering.Load() > 0 {
			continue
		}
		if !epochsEqual(before, c.epochVector()) {
			continue
		}
		return err
	}
	return nil
}
