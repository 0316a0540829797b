package workload

import (
	"context"
	"time"

	"telecast/internal/fault"
	"telecast/internal/metrics"
	"telecast/internal/model"
	"telecast/internal/session"
	"telecast/internal/telemetry"
)

// Options collects the runner knobs; build them with the functional options
// below (mirroring the session API conventions).
type Options struct {
	// SampleEvery is the simulated-time sampling interval.
	SampleEvery time.Duration
	// Validate runs the overlay invariant checker at every sample point.
	Validate bool
	// InboundMbps is every joining viewer's inbound capacity.
	InboundMbps float64
	// Horizon bounds sampling; zero means the last event's time.
	Horizon time.Duration
	// Seed drives the scenario's random draws.
	Seed int64
	// Sinks receive every sample in addition to the Result's own series.
	Sinks []Sink
	// BatchWindow is the wall-clock executor's binning width in simulated
	// time: due events inside one window form one fan-out.
	BatchWindow time.Duration
	// MaxInFlight bounds one fan-out: larger batches are dispatched in
	// windows of this many in-flight requests.
	MaxInFlight int
	// Injector executes EventFault entries (usually the run's own
	// *session.Controller). A scenario emitting fault events without an
	// injector fails the run.
	Injector fault.Injector
}

// Option customizes a run.
type Option func(*Options)

func defaultOptions() Options {
	return Options{
		SampleEvery: time.Second,
		InboundMbps: 12,
		Seed:        1,
		BatchWindow: 250 * time.Millisecond,
		MaxInFlight: 512,
	}
}

func buildOptions(opts []Option) Options {
	o := defaultOptions()
	for _, opt := range opts {
		opt(&o)
	}
	if o.SampleEvery <= 0 {
		o.SampleEvery = time.Second
	}
	if o.BatchWindow <= 0 {
		o.BatchWindow = 250 * time.Millisecond
	}
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 512
	}
	return o
}

// WithSampleEvery sets the sampling interval (default 1 s of scenario time).
func WithSampleEvery(d time.Duration) Option { return func(o *Options) { o.SampleEvery = d } }

// WithValidation toggles invariant checking at every sample point.
func WithValidation(enabled bool) Option { return func(o *Options) { o.Validate = enabled } }

// WithInbound sets the per-viewer inbound capacity (default 12 Mbps).
func WithInbound(mbps float64) Option { return func(o *Options) { o.InboundMbps = mbps } }

// WithHorizon bounds the run and its sampling (default: last event's time).
func WithHorizon(d time.Duration) Option { return func(o *Options) { o.Horizon = d } }

// WithSeed seeds the scenario's draws (default 1).
func WithSeed(seed int64) Option { return func(o *Options) { o.Seed = seed } }

// WithSink attaches an additional sample consumer.
func WithSink(s Sink) Option { return func(o *Options) { o.Sinks = append(o.Sinks, s) } }

// WithBatchWindow sets the wall-clock executor's event-binning width in
// simulated time (default 250 ms).
func WithBatchWindow(d time.Duration) Option { return func(o *Options) { o.BatchWindow = d } }

// WithMaxInFlight bounds the wall-clock executor's in-flight window per
// fan-out (default 512).
func WithMaxInFlight(n int) Option { return func(o *Options) { o.MaxInFlight = n } }

// WithInjector wires the fault-injection seam: EventFault entries execute
// against inj at their scheduled time (the wall-clock executor drains the
// pipeline first, so a kill lands on a settled control plane).
func WithInjector(inj fault.Injector) Option { return func(o *Options) { o.Injector = inj } }

// Result summarizes an executed scenario.
type Result struct {
	// Scenario names what ran.
	Scenario string
	// Samples is the periodic time series (also delivered to sinks).
	Samples []Sample
	// Joins counts admitted joins; Rejected counts joins refused by
	// admission control — kept apart so Joins/(Joins+Rejected) agrees with
	// the overlay's acceptance accounting instead of conflating the two.
	Joins, Rejected int
	// Leaves and ViewChanges count executed events; ViewChangesRejected
	// counts the view changes whose re-admission was refused (a subset of
	// ViewChanges — those viewers are demoted, not departed).
	Leaves, ViewChanges, ViewChangesRejected int
	// Migrations counts cross-region handoffs that landed on their
	// destination; MigrationsBounced those the destination refused (viewer
	// restored on its source shard or departed under policy).
	Migrations, MigrationsBounced int
	// FaultsInjected counts executed EventFault entries; ShardDown counts
	// operations refused with ErrShardDown while their region was killed
	// (workload outcomes under fault injection, not run errors).
	FaultsInjected, ShardDown int
	// PeakViewers is the maximum concurrently admitted audience.
	PeakViewers int
	// Regions counts the distinct LSC shards that processed joins.
	Regions int
	// Elapsed is the wall-clock execution time.
	Elapsed time.Duration
	// JoinsPerSec is the achieved admission throughput, (Joins+Rejected)/
	// Elapsed. On the deterministic runner it is the one-at-a-time rate.
	JoinsPerSec float64
	// FinalAcceptance and MinAcceptance summarize ρ over the samples.
	FinalAcceptance, MinAcceptance float64
	// JoinDelays, ViewChangeDelays and MigrationDelays are the run's
	// simulated protocol delays (Fig. 14(c) and the handoff's), in seconds:
	// one sample per join that reached a shard (admitted or rejected), per
	// view change the shard processed (its perceived switch delay), and per
	// landed migration. They stay empty when the plane reports no delays
	// (the HTTP client). They are not serialized: a CDF has no stable
	// encoding of its own.
	JoinDelays, ViewChangeDelays, MigrationDelays metrics.CDF `json:"-"`
	// Latency is the per-op wall-clock latency table for the run's window,
	// populated when the executed controller has telemetry enabled (local
	// runs) or the remote plane exposes its latency surface; nil otherwise.
	Latency []OpLatency
}

// Runner executes scenarios against a control plane. Both constructors
// return the one executor (parallel.go) in one of its two modes.
type Runner interface {
	Run(ctx context.Context, ctrl *session.Controller, producers *model.Session, sc Scenario, opts ...Option) (Result, error)
}

// NewSimRunner returns the deterministic executor — the paper's discrete
// event simulation: events execute one at a time in exact schedule order,
// each through the controller's single-op method, and a sample at time t
// sees every event at or before t.
func NewSimRunner() Runner { return runner{serial: true} }

// NewParallelRunner returns the wall-clock executor: due events are binned
// into JoinBatch/DepartBatch fan-outs across the LSC shards with a bounded
// in-flight window, and the Result reports achieved joins/s.
func NewParallelRunner() Runner { return runner{} }

// tally tracks per-viewer liveness and the Result counters while a run
// executes. routed mirrors the GSC routing table (rejected viewers stay
// routed and leavable); the value records whether the viewer is currently
// admitted.
type tally struct {
	res     Result
	routed  map[model.ViewerID]bool
	live    int
	regions map[int]struct{}
}

func newTally(scenario string) *tally {
	return &tally{
		res:     Result{Scenario: scenario},
		routed:  make(map[model.ViewerID]bool),
		regions: make(map[int]struct{}),
	}
}

// join records an admission outcome; region is the LSC shard that processed
// the join (negative when the request never reached one).
func (t *tally) join(id model.ViewerID, region int, admitted bool) {
	t.routed[id] = admitted
	if region >= 0 {
		t.regions[region] = struct{}{}
	}
	if admitted {
		t.res.Joins++
		t.live++
		if t.live > t.res.PeakViewers {
			t.res.PeakViewers = t.live
		}
	} else {
		t.res.Rejected++
	}
}

func (t *tally) leave(id model.ViewerID) {
	if t.routed[id] {
		t.live--
	}
	delete(t.routed, id)
	t.res.Leaves++
}

// viewChange records a re-admission outcome: a rejected re-admission demotes
// the viewer, a successful one can re-admit a previously rejected viewer.
func (t *tally) viewChange(id model.ViewerID, admitted bool) {
	t.res.ViewChanges++
	if !admitted {
		t.res.ViewChangesRejected++
	}
	t.setAdmitted(id, admitted)
}

// migrate records a handoff outcome in the unified vocabulary. An outcome
// with none of the classification flags set (typed early failure, e.g. the
// destination region's node pool was exhausted, or a same-region no-op)
// changes nothing.
func (t *tally) migrate(id model.ViewerID, out Outcome) {
	switch {
	case out.Departed:
		t.res.MigrationsBounced++
		if t.routed[id] {
			t.live--
		}
		delete(t.routed, id)
	case out.Restored:
		t.res.MigrationsBounced++
		t.setAdmitted(id, out.Admitted)
	case out.Landed:
		t.res.Migrations++
		t.setAdmitted(id, true)
	}
}

// delay adds an operation's protocol delay to its kind's distribution; an
// outcome that carries none adds nothing.
func (t *tally) delay(kind EventKind, d time.Duration) {
	if d <= 0 {
		return
	}
	switch kind {
	case EventJoin:
		t.res.JoinDelays.AddDuration(d)
	case EventViewChange:
		t.res.ViewChangeDelays.AddDuration(d)
	case EventMigrate:
		t.res.MigrationDelays.AddDuration(d)
	}
}

// setAdmitted moves a routed viewer between the admitted and rejected
// states, keeping the live count and peak coherent.
func (t *tally) setAdmitted(id model.ViewerID, admitted bool) {
	was := t.routed[id]
	if was == admitted {
		return
	}
	t.routed[id] = admitted
	if admitted {
		t.live++
		if t.live > t.res.PeakViewers {
			t.res.PeakViewers = t.live
		}
	} else {
		t.live--
	}
}

func (t *tally) sample(at time.Duration, c Counters) Sample {
	return Sample{
		At:          at,
		Viewers:     t.live,
		LiveStreams: c.LiveStreams,
		Acceptance:  c.AcceptanceRatio(),
		CDNMbps:     c.CDNOutMbps,
		CDNFraction: c.CDNFraction(),
	}
}

// finish folds the sinks' view of the run into the Result.
func (t *tally) finish(stats *StatsSink, sinks Sink) (Result, error) {
	t.res.Samples = stats.Samples()
	t.res.FinalAcceptance = stats.FinalAcceptance()
	t.res.MinAcceptance = stats.MinAcceptance()
	t.res.Regions = len(t.regions)
	return t.res, sinks.Flush()
}

// telemetryWindow opens a latency window over a local controller: when its
// collector is enabled, the returned snapshot is the window's start and the
// collector non-nil; otherwise the collector is nil and the runner skips the
// latency table. ctrl may be nil (remote planes).
func telemetryWindow(ctrl *session.Controller) (telemetry.Snapshot, *telemetry.Collector) {
	if ctrl == nil {
		return telemetry.Snapshot{}, nil
	}
	tel := ctrl.Telemetry()
	if tel == nil || !tel.Enabled() {
		return telemetry.Snapshot{}, nil
	}
	return tel.Snapshot(), tel
}
