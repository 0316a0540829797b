package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"telecast/internal/cdn"
	"telecast/internal/httpapi/client"
	"telecast/internal/model"
	"telecast/internal/overlay"
	"telecast/internal/session"
	"telecast/internal/trace"
	"telecast/internal/workload"
)

// target is one entry point into the control plane: a rung of the ladder.
// do sends one op through the entry point's single-op form and exec sends a
// same-kind batch through its batched form. A failure of the call itself
// (transport, 5xx, short reply) is the returned error; what the control
// plane decided about an op, admission rejections included, is in the
// outcome.
type target interface {
	do(ctx context.Context, rq workload.Request) (workload.Outcome, error)
	exec(ctx context.Context, reqs []workload.Request) ([]workload.Outcome, error)
	counters(ctx context.Context) (workload.Counters, error)
}

// system describes the control plane a workload runs against, in the terms
// `telecast-node serve` takes them.
type system struct {
	seed       int64
	maxViewers int
	cdnMbps    float64 // 0 = unbounded
	// hashed selects the O(n) latency substrate with one region (the deep
	// workload); otherwise the dense eight-region matrix serve builds.
	hashed bool
}

// newProducers is the producer session serve builds by default: two sites
// of eight camera streams.
func newProducers() (*model.Session, error) {
	return model.NewSession(
		model.NewRingSite("A", 8, 2.0, 10),
		model.NewRingSite("B", 8, 2.0, 10))
}

func (s system) latency() (*trace.LatencyMatrix, error) {
	cfg := trace.DefaultLatencyConfig(s.maxViewers+16, s.seed)
	if s.hashed {
		cfg.Regions = 1
		return trace.GenerateHashedLatencyMatrix(cfg)
	}
	return trace.GenerateLatencyMatrix(cfg)
}

func (s system) cdnConfig() cdn.Config {
	cfg := cdn.DefaultConfig()
	cfg.OutboundCapacityMbps = s.cdnMbps
	return cfg
}

// controller builds the control plane exactly as serve does.
func (s system) controller(producers *model.Session, lat *trace.LatencyMatrix, telemetry bool) (*session.Controller, error) {
	return session.NewController(producers, lat,
		session.WithCutoffDF(0.5),
		session.WithCDN(s.cdnConfig()),
		session.WithTelemetry(telemetry))
}

// clientTarget drives an httpapi server through httpapi/client: the child
// over loopback, or an in-process handler.
type clientTarget struct{ cl *client.Client }

func (t clientTarget) do(ctx context.Context, rq workload.Request) (workload.Outcome, error) {
	o, err := t.cl.Do(ctx, rq)
	if err != nil && client.CodeOf(err) != "" {
		// The single-op endpoints answer a typed error as a status code and
		// the client hands it back as the call's error. The call worked; the
		// error is the op's outcome.
		o.ID, o.Err, err = rq.ID, err, nil
	}
	return o, err
}

func (t clientTarget) exec(ctx context.Context, reqs []workload.Request) ([]workload.Outcome, error) {
	return t.cl.Exec(ctx, reqs)
}

func (t clientTarget) counters(ctx context.Context) (workload.Counters, error) {
	return t.cl.Counters(ctx)
}

// handlerTransport serves requests by calling an http.Handler directly: the
// httpapi rung without a socket. It runs on the calling driver's goroutine,
// so it records the handler call as a child span of the driver's call in
// flight, and the body bytes in the driver's log.
type handlerTransport struct {
	h     http.Handler
	epoch time.Time
}

func (t handlerTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	w := httptest.NewRecorder()
	start := time.Now()
	t.h.ServeHTTP(w, r)
	end := time.Now()
	if log := logFrom(r.Context()); log != nil {
		log.childSpan("Handler.ServeHTTP", t.epoch, start, end)
		log.bytes += r.ContentLength + int64(w.Body.Len())
	}
	return w.Result(), nil
}

// planeTarget drives workload.NewLocalPlane — what httpapi itself calls.
type planeTarget struct{ plane workload.ControlPlane }

func (t planeTarget) do(ctx context.Context, rq workload.Request) (workload.Outcome, error) {
	outs, err := t.plane.Exec(ctx, []workload.Request{rq})
	if err != nil {
		return workload.Outcome{}, err
	}
	return outs[0], nil
}

func (t planeTarget) exec(ctx context.Context, reqs []workload.Request) ([]workload.Outcome, error) {
	return t.plane.Exec(ctx, reqs)
}

func (t planeTarget) counters(ctx context.Context) (workload.Counters, error) {
	return t.plane.Counters(ctx)
}

// angleViews holds one read-only view per angle of the schedule's
// convention, built once: the rungs below the plane take views, not angles,
// and composing one per op would time model, not the rung.
type angleViews [len(viewAngles)]model.View

func newAngleViews(producers *model.Session) (v angleViews) {
	for i, a := range viewAngles {
		v[i] = model.NewUniformView(producers, a)
	}
	return v
}

func (v angleViews) view(angle float64) model.View {
	for i, a := range viewAngles {
		if a == angle {
			return v[i]
		}
	}
	panic(fmt.Sprintf("angle %v is not in the schedule's convention", angle))
}

// execEach is exec for an entry point with no batched form: a batch is its
// ops, one call each.
func execEach(ctx context.Context, t target, reqs []workload.Request) ([]workload.Outcome, error) {
	outs := make([]workload.Outcome, len(reqs))
	for i, rq := range reqs {
		o, err := t.do(ctx, rq)
		if err != nil {
			return nil, err
		}
		outs[i] = o
	}
	return outs, nil
}

// sessionTarget drives session.Controller's own methods.
type sessionTarget struct {
	ctrl      *session.Controller
	producers *model.Session
	angleViews
}

func newSessionTarget(ctrl *session.Controller, producers *model.Session) *sessionTarget {
	return &sessionTarget{ctrl: ctrl, producers: producers, angleViews: newAngleViews(producers)}
}

func (t *sessionTarget) joinRequest(rq workload.Request) session.JoinRequest {
	return session.JoinRequest{ID: rq.ID, InboundMbps: rq.InboundMbps,
		OutboundMbps: rq.OutboundMbps, View: t.view(rq.ViewAngle), Region: rq.Region}
}

func (t *sessionTarget) do(ctx context.Context, rq workload.Request) (workload.Outcome, error) {
	o := workload.Outcome{ID: rq.ID, Region: -1}
	switch rq.Kind {
	case workload.EventJoin:
		out, err := t.ctrl.Admit(ctx, t.joinRequest(rq))
		o.Admitted, o.Err = err == nil, err
		if out != nil {
			o.Region = out.LSCRegion
		}
	case workload.EventLeave:
		err := t.ctrl.Leave(ctx, rq.ID)
		o.Departed, o.Err = err == nil, err
	case workload.EventViewChange:
		out, err := t.ctrl.ChangeView(ctx, rq.ID, t.view(rq.ViewAngle))
		o.Admitted, o.Err = out != nil && out.Result.Admitted, err
	default:
		return o, fmt.Errorf("session target: unsupported kind %v", rq.Kind)
	}
	return o, nil
}

func (t *sessionTarget) exec(ctx context.Context, reqs []workload.Request) ([]workload.Outcome, error) {
	outs := make([]workload.Outcome, len(reqs))
	switch reqs[0].Kind {
	case workload.EventJoin:
		joins := make([]session.JoinRequest, len(reqs))
		for i, rq := range reqs {
			joins[i] = t.joinRequest(rq)
		}
		for i, b := range t.ctrl.JoinBatch(ctx, joins) {
			outs[i] = workload.Outcome{ID: b.ID, Region: -1, Admitted: b.Err == nil, Err: b.Err}
			if b.Outcome != nil {
				outs[i].Region = b.Outcome.LSCRegion
			}
		}
	case workload.EventLeave:
		ids := make([]model.ViewerID, len(reqs))
		for i, rq := range reqs {
			ids[i] = rq.ID
		}
		for i, b := range t.ctrl.DepartBatch(ctx, ids) {
			outs[i] = workload.Outcome{ID: b.ID, Region: -1, Departed: b.Err == nil, Err: b.Err}
		}
	default:
		return execEach(ctx, t, reqs)
	}
	return outs, nil
}

func (t *sessionTarget) counters(ctx context.Context) (workload.Counters, error) {
	return workload.NewLocalPlane(t.ctrl, t.producers, 0).Counters(ctx)
}

// overlayTarget is the bottom rung: one bare overlay.Manager per region and
// nothing of the session layer around it but what a Manager cannot run
// without — a viewer→node registry for the propagation-delay function and a
// node allocator with the session's order (released nodes first, then the
// next unused index). Viewers land in the region of their latency node, as
// the GSC routes them, so each Manager sees its region's op sequence. It is
// single-threaded like the Managers: the ladder replays the drivers' lists
// merged into one.
type overlayTarget struct {
	lat *trace.LatencyMatrix
	angleViews
	managers []*overlay.Manager // indexed by region
	nodes    map[model.ViewerID]int
	free     []int
	next     int
	// cdnAttaches counts tree positions a join or view change was given
	// directly under the CDN: one egress reserve each.
	cdnAttaches uint64
}

// newOverlayTarget builds the managers over a fresh CDN with the overlay
// parameters of a controller built for the same system.
func newOverlayTarget(sys system, producers *model.Session, lat *trace.LatencyMatrix, params overlay.Params) (*overlayTarget, error) {
	t := &overlayTarget{
		lat:        lat,
		angleViews: newAngleViews(producers),
		nodes:      make(map[model.ViewerID]int),
		next:       1 + lat.NumRegions(), // node 0 is the GSC, then one LSC per region
	}
	dist := cdn.New(sys.cdnConfig())
	prop := func(a, b model.ViewerID) time.Duration { return lat.Delay(t.nodes[a], t.nodes[b]) }
	for r := 0; r < lat.NumRegions(); r++ {
		mgr, err := overlay.NewManager(producers, dist, prop, params)
		if err != nil {
			return nil, err
		}
		t.managers = append(t.managers, mgr)
	}
	return t, nil
}

func (t *overlayTarget) countAttaches(res *overlay.JoinResult) {
	if res == nil || res.Viewer == nil {
		return
	}
	for _, n := range res.Viewer.Nodes {
		if n.Parent == nil {
			t.cdnAttaches++
		}
	}
}

func (t *overlayTarget) do(_ context.Context, rq workload.Request) (workload.Outcome, error) {
	o := workload.Outcome{ID: rq.ID, Region: -1}
	switch rq.Kind {
	case workload.EventJoin:
		node := t.next
		if n := len(t.free); n > 0 {
			node, t.free = t.free[n-1], t.free[:n-1]
		} else {
			t.next++
		}
		if node >= t.lat.Nodes() {
			return o, session.ErrMatrixExhausted
		}
		t.nodes[rq.ID] = node
		o.Region = int(t.lat.RegionOf(node))
		mgr := t.managers[o.Region]
		res, err := mgr.Join(overlay.ViewerInfo{ID: rq.ID, InboundMbps: rq.InboundMbps, OutboundMbps: rq.OutboundMbps}, t.view(rq.ViewAngle))
		mgr.DrainDrops()
		if err != nil {
			return o, err
		}
		t.countAttaches(res)
		if o.Admitted = res.Admitted; !res.Admitted {
			o.Err = &session.RejectionError{Viewer: rq.ID, Reason: res.Reason}
		}
	case workload.EventLeave:
		node, ok := t.nodes[rq.ID]
		if !ok {
			return o, session.ErrUnknownViewer
		}
		mgr := t.managers[t.lat.RegionOf(node)]
		err := mgr.Leave(rq.ID)
		mgr.DrainDrops()
		if err != nil {
			return o, err
		}
		delete(t.nodes, rq.ID)
		t.free = append(t.free, node)
		o.Departed = true
	case workload.EventViewChange:
		node, ok := t.nodes[rq.ID]
		if !ok {
			return o, session.ErrUnknownViewer
		}
		mgr := t.managers[t.lat.RegionOf(node)]
		res, err := mgr.ChangeView(rq.ID, t.view(rq.ViewAngle))
		mgr.DrainDrops()
		if err != nil {
			return o, err
		}
		t.countAttaches(res)
		if o.Admitted = res.Admitted; !res.Admitted {
			o.Err = &session.RejectionError{Viewer: rq.ID, Reason: res.Reason}
		}
	default:
		return o, fmt.Errorf("overlay target: unsupported kind %v", rq.Kind)
	}
	return o, nil
}

func (t *overlayTarget) exec(ctx context.Context, reqs []workload.Request) ([]workload.Outcome, error) {
	return execEach(ctx, t, reqs)
}

func (t *overlayTarget) counters(context.Context) (workload.Counters, error) {
	var c workload.Counters
	for _, mgr := range t.managers {
		s := mgr.QuickSnapshot()
		c.Viewers += s.Viewers
		c.Admitted += s.Admitted
		c.Rejected += s.Rejected
		c.StreamsRequested += s.StreamsRequested
		c.StreamsAccepted += s.StreamsAccepted
	}
	return c, nil
}

// meanTreeDepth averages the managers' mean tree depth over the regions
// that have trees.
func (t *overlayTarget) meanTreeDepth() float64 {
	sum, n := 0.0, 0
	for _, mgr := range t.managers {
		if d := mgr.MeanTreeDepth(); d > 0 {
			sum += d
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// validate checks every manager's overlay invariants.
func (t *overlayTarget) validate() error {
	for r, mgr := range t.managers {
		if err := mgr.Validate(); err != nil {
			return fmt.Errorf("overlay region %d: %w", r, err)
		}
	}
	return nil
}
