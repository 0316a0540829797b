package workload

import (
	"context"
	"math"
	"sync"
	"time"

	"telecast/internal/model"
	"telecast/internal/session"
)

// This file defines the controller-facing seam of the scenario executor:
// one request vocabulary covering every event kind, one batched Exec verb,
// and one cheap counter snapshot. The executor builds same-kind runs of
// Requests and never cares who executes them — NewLocalPlane dispatches into
// a *session.Controller in-process, and the HTTP client implements the same
// interface over the wire, which is what lets `telecast-node replay` drive
// any catalog scenario through a socket with the pipeline semantics intact.

// Request is one control-plane operation in the executor's unified batch
// vocabulary. Kind selects the operation; the other fields apply per kind
// exactly as the corresponding Event fields do.
type Request struct {
	Kind EventKind
	ID   model.ViewerID
	// InboundMbps and OutboundMbps apply to joins.
	InboundMbps  float64
	OutboundMbps float64
	// ViewAngle applies to joins and view changes (uniform views).
	ViewAngle float64
	// Region hints a join's placement or names a migration's destination.
	Region session.RegionHint
	// Cause labels a migration on the event stream.
	Cause string
	// DepartOnReject selects the migration failure policy.
	DepartOnReject bool
}

// Outcome is the per-request result of a dispatched run, in input order.
type Outcome struct {
	ID model.ViewerID
	// Region is the LSC region that processed a join; -1 when the request
	// never reached a shard or the operation carries no region.
	Region int
	// Admitted reports the viewer's admission state after the operation:
	// accepted joins and view changes, and for migrations the state the
	// viewer ended in (landed, or restored-and-readmitted).
	Admitted bool
	// Landed, Restored, Departed classify migrations: landed on the
	// destination shard, restored on the source after a destination
	// refusal, or departed under the DepartOnReject policy. All false for
	// a same-region no-op or an early typed failure.
	Landed, Restored, Departed bool
	// Delay is the simulated protocol delay the operation reported: a
	// join's (admitted or rejected), a view change's perceived switch, a
	// landed migration's handoff. Zero when it reported none — the request
	// failed before reaching a shard, a migration did not land, a leave, or
	// a plane that does not carry delays (the HTTP client).
	Delay time.Duration
	// Err is the per-request error. Typed values — the session sentinels
	// and *RejectionError — survive the HTTP wire and stay matchable with
	// errors.Is / errors.As.
	Err error
}

// Counters is the cheap counter snapshot the periodic sampler reads: the
// SampleStats path over a local controller, /metricz over the wire. No
// sorted distributions, no CDFs — safe to poll every simulated second.
type Counters struct {
	Viewers, Admitted, Rejected         int
	StreamsRequested, StreamsAccepted   int
	LiveStreams, ViaCDN, ViaP2P, Groups int
	CDNOutMbps, CDNPeakMbps, CDNInMbps  float64
	// AdaptationDrops is the cumulative count of stream subscriptions
	// dropped by the delay-layer adaptation across every shard.
	AdaptationDrops uint64
}

// AcceptanceRatio returns ρ = accepted/requested streams (1 before any
// request).
func (c Counters) AcceptanceRatio() float64 {
	if c.StreamsRequested == 0 {
		return 1
	}
	return float64(c.StreamsAccepted) / float64(c.StreamsRequested)
}

// CDNFraction returns the fraction of live subscriptions served directly by
// the CDN (1 when nothing is live).
func (c Counters) CDNFraction() float64 {
	if c.LiveStreams == 0 {
		return 1
	}
	return float64(c.ViaCDN) / float64(c.LiveStreams)
}

// ControlPlane is what the scenario executor needs from a control plane.
// Exec executes a batch of requests and returns outcomes in input order;
// consecutive same-kind requests form a run and runs execute in input order,
// so a mixed batch behaves exactly like the per-kind calls it replaces.
// Callers bound batch sizes themselves (the executor chunks by MaxInFlight).
type ControlPlane interface {
	Exec(ctx context.Context, reqs []Request) ([]Outcome, error)
	Counters(ctx context.Context) (Counters, error)
}

// NewLocalPlane binds the unified vocabulary to an in-process controller.
// A run of one request goes to the matching single-op method (Admit, Leave,
// ChangeView, Migrate): a batch of one would pay for a fan-out it cannot
// use. Longer runs dispatch joins through JoinBatch, leaves through
// DepartBatch, migrations through MigrateBatch, and view changes through a
// bounded worker pool (at most maxParallel wide, ≤0 means 256) with
// same-viewer changes split into ordered waves. This file is the only place
// the workload package calls the controller's operation methods.
func NewLocalPlane(ctrl *session.Controller, producers *model.Session, maxParallel int) ControlPlane {
	if maxParallel <= 0 {
		maxParallel = 256
	}
	return &localPlane{ctrl: ctrl, producers: producers, maxParallel: maxParallel, views: make(map[uint64]model.View)}
}

// viewCacheMax bounds the local plane's per-angle view cache. A catalog
// scenario asks for a handful of angles; the cap only keeps a continuous
// angle sweep from growing the cache without bound, and on overflow the
// cache resets and rebuilds the angles in use.
const viewCacheMax = 4096

type localPlane struct {
	ctrl        *session.Controller
	producers   *model.Session
	maxParallel int
	// views holds one uniform view per requested angle, keyed by the
	// angle's bits, so a request shares its angle's orientation map
	// instead of building one. The controller only reads a request's
	// view (the overlay interns a private clone), so sharing is safe.
	viewsMu sync.Mutex
	views   map[uint64]model.View
}

// view returns the uniform view at angle, built once per distinct angle.
func (p *localPlane) view(angle float64) model.View {
	key := math.Float64bits(angle)
	p.viewsMu.Lock()
	defer p.viewsMu.Unlock()
	v, ok := p.views[key]
	if !ok {
		if len(p.views) >= viewCacheMax {
			clear(p.views)
		}
		v = model.NewUniformView(p.producers, angle)
		p.views[key] = v
	}
	return v
}

// Exec splits the batch into consecutive same-kind runs and dispatches each
// by its length: single-op method for one request, batch entry point for
// more.
func (p *localPlane) Exec(ctx context.Context, reqs []Request) ([]Outcome, error) {
	outs := make([]Outcome, len(reqs))
	for start := 0; start < len(reqs); {
		end := start + 1
		for end < len(reqs) && reqs[end].Kind == reqs[start].Kind {
			end++
		}
		run, runOuts := reqs[start:end], outs[start:end]
		switch kind := run[0].Kind; {
		case len(run) == 1:
			runOuts[0] = p.execOne(ctx, run[0])
		case kind == EventJoin:
			p.execJoins(ctx, run, runOuts)
		case kind == EventLeave:
			p.execLeaves(ctx, run, runOuts)
		case kind == EventViewChange:
			p.execViewChanges(ctx, run, runOuts)
		case kind == EventMigrate:
			p.execMigrations(ctx, run, runOuts)
		default:
			for i, rq := range run {
				runOuts[i] = p.execOne(ctx, rq)
			}
		}
		start = end
	}
	return outs, nil
}

// execOne runs one request through the controller's single-op method; a
// kind with no control-plane operation is a no-op outcome.
func (p *localPlane) execOne(ctx context.Context, rq Request) Outcome {
	switch rq.Kind {
	case EventJoin:
		out, err := p.ctrl.Admit(ctx, p.joinRequest(rq))
		return joinOutcome(rq.ID, out, err)
	case EventLeave:
		return leaveOutcome(rq.ID, p.ctrl.Leave(ctx, rq.ID))
	case EventViewChange:
		return p.changeView(ctx, rq)
	case EventMigrate:
		out, err := p.ctrl.Migrate(ctx, rq.ID, migrateRequest(rq))
		return migrationOutcome(rq.ID, out, err)
	}
	return Outcome{ID: rq.ID, Region: -1}
}

func (p *localPlane) joinRequest(rq Request) session.JoinRequest {
	return session.JoinRequest{
		ID:           rq.ID,
		InboundMbps:  rq.InboundMbps,
		OutboundMbps: rq.OutboundMbps,
		View:         p.view(rq.ViewAngle),
		Region:       rq.Region,
	}
}

func migrateRequest(rq Request) session.MigrateRequest {
	to, _ := rq.Region.Region()
	return session.MigrateRequest{To: to, Reason: rq.Cause, DepartOnReject: rq.DepartOnReject}
}

// joinOutcome folds an admission result into the unified vocabulary: the
// region is known whenever the request reached a shard, rejections included.
func joinOutcome(id model.ViewerID, out *session.JoinOutcome, err error) Outcome {
	o := Outcome{ID: id, Region: -1, Admitted: err == nil, Err: err}
	if out != nil {
		o.Region, o.Delay = out.LSCRegion, out.Delay
	}
	return o
}

func leaveOutcome(id model.ViewerID, err error) Outcome {
	return Outcome{ID: id, Region: -1, Departed: err == nil, Err: err}
}

// migrationOutcome folds a MigrateOutcome into the unified vocabulary, so
// the single-op and batch paths classify handoffs identically.
func migrationOutcome(id model.ViewerID, out *session.MigrateOutcome, err error) Outcome {
	o := Outcome{ID: id, Region: -1, Err: err}
	if out == nil {
		return o
	}
	o.Region, o.Delay = int(out.To), out.Delay
	switch {
	case out.Departed:
		o.Departed = true
	case out.Restored:
		o.Restored = true
		o.Admitted = out.Result != nil && out.Result.Admitted
	case out.Result != nil:
		o.Landed = true
		o.Admitted = true
	}
	return o
}

func (p *localPlane) changeView(ctx context.Context, rq Request) Outcome {
	out, err := p.ctrl.ChangeView(ctx, rq.ID, p.view(rq.ViewAngle))
	o := Outcome{ID: rq.ID, Region: -1, Err: err}
	if out != nil {
		o.Admitted, o.Delay = out.Result.Admitted, out.SwitchDelay
	}
	return o
}

func (p *localPlane) execJoins(ctx context.Context, run []Request, outs []Outcome) {
	joins := make([]session.JoinRequest, len(run))
	for i, rq := range run {
		joins[i] = p.joinRequest(rq)
	}
	for i, b := range p.ctrl.JoinBatch(ctx, joins) {
		outs[i] = joinOutcome(b.ID, b.Outcome, b.Err)
	}
}

func (p *localPlane) execLeaves(ctx context.Context, run []Request, outs []Outcome) {
	ids := make([]model.ViewerID, len(run))
	for i, rq := range run {
		ids[i] = rq.ID
	}
	for i, b := range p.ctrl.DepartBatch(ctx, ids) {
		outs[i] = leaveOutcome(b.ID, b.Err)
	}
}

func (p *localPlane) execMigrations(ctx context.Context, run []Request, outs []Outcome) {
	migs := make([]session.Migration, len(run))
	for i, rq := range run {
		migs[i] = session.Migration{ID: rq.ID, Req: migrateRequest(rq)}
	}
	for i, b := range p.ctrl.MigrateBatch(ctx, migs) {
		outs[i] = migrationOutcome(b.ID, b.Outcome, b.Err)
	}
}

// execViewChanges dispatches distinct-viewer changes concurrently on a
// bounded pool; a run naming one viewer twice is split into waves with a
// barrier between them so the later view always wins.
func (p *localPlane) execViewChanges(ctx context.Context, run []Request, outs []Outcome) {
	inWave := make(map[model.ViewerID]bool, len(run))
	for start := 0; start < len(run); {
		end := start
		for end < len(run) && !inWave[run[end].ID] {
			inWave[run[end].ID] = true
			end++
		}
		p.viewChangeWave(ctx, run[start:end], outs[start:end])
		clear(inWave)
		start = end
	}
}

func (p *localPlane) viewChangeWave(ctx context.Context, wave []Request, outs []Outcome) {
	sem := make(chan struct{}, p.maxParallel)
	var wg sync.WaitGroup
	for i, rq := range wave {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, rq Request) {
			defer wg.Done()
			defer func() { <-sem }()
			outs[i] = p.changeView(ctx, rq)
		}(i, rq)
	}
	wg.Wait()
}

// Counters reads the controller's cheap snapshot path (no sorted CDFs).
func (p *localPlane) Counters(context.Context) (Counters, error) {
	return localCounters(p.ctrl), nil
}

// localCounters folds Controller.SampleStats into the seam's counter type.
func localCounters(ctrl *session.Controller) Counters {
	st := ctrl.SampleStats()
	return Counters{
		Viewers:          st.Overlay.Viewers,
		Admitted:         st.Overlay.Admitted,
		Rejected:         st.Overlay.Rejected,
		StreamsRequested: st.Overlay.StreamsRequested,
		StreamsAccepted:  st.Overlay.StreamsAccepted,
		LiveStreams:      st.Overlay.LiveStreams,
		ViaCDN:           st.Overlay.ViaCDN,
		ViaP2P:           st.Overlay.ViaP2P,
		Groups:           st.Overlay.Groups,
		CDNOutMbps:       st.Overlay.CDNUsage.OutTotalMbps,
		CDNPeakMbps:      st.Overlay.CDNUsage.PeakOutMbps,
		CDNInMbps:        st.Overlay.CDNUsage.InTotalMbps,
		AdaptationDrops:  st.AdaptationDrops,
	}
}
