package experiments

import (
	"context"
	"fmt"
	"time"

	"telecast/internal/trace"
	"telecast/internal/workload"
)

// ScenarioOptions refines a catalog-scenario run.
type ScenarioOptions struct {
	// Wallclock selects the parallel executor (JoinBatch/DepartBatch
	// fan-outs across LSC shards, achieved joins/s); false replays on the
	// deterministic discrete-event runner.
	Wallclock bool
	// Duration is the scenario horizon (default 30 s).
	Duration time.Duration
	// Sinks receive the periodic samples (e.g. a CSV sink for plotting).
	Sinks []workload.Sink
	// Validate runs the invariant checker at every sample point (always on
	// for the discrete-event runner; optional under wall-clock to keep the
	// throughput number honest).
	Validate bool
}

// ScenarioResult is one catalog-scenario run, with the runner's counters
// cross-checked against the control plane's event stream.
type ScenarioResult struct {
	Scenario  string
	Wallclock bool
	Events    int
	// Joins/Rejected/Leaves/ViewChanges are the runner's executed-event
	// counters; Regions counts the distinct LSC shards that processed
	// joins.
	Joins, Rejected, Leaves, ViewChanges int
	// Migrations counts cross-region handoffs that landed on their
	// destination shard, MigrationsBounced those the destination refused
	// (viewer restored on source or departed).
	Migrations, MigrationsBounced int
	PeakViewers, Regions          int
	Elapsed                       time.Duration
	// JoinsPerSec is the achieved admission throughput (wall-clock runs).
	JoinsPerSec     float64
	FinalAcceptance float64
	MinAcceptance   float64
	// StreamAccepted/StreamRejected/EventsDropped are what the
	// Controller.Subscribe stream reported for the same run.
	StreamAccepted, StreamRejected int
	EventsDropped                  uint64
	// Latency is the per-op wall-clock latency table reduced from the
	// controller's telemetry collector over this run.
	Latency []workload.OpLatency
}

// RunScenario instantiates a catalog scenario by name, sizes a controller
// for it, and executes it — by default on the wall-clock parallel runner,
// the first consumer that drives the sharded control plane the way the
// GSC/LSC deployment would.
func RunScenario(setup Setup, name string, o ScenarioOptions) (ScenarioResult, error) {
	if o.Duration <= 0 {
		o.Duration = 30 * time.Second
	}
	knobs := workload.Knobs{
		Seed:       setup.Seed,
		Audience:   setup.Audience,
		Duration:   o.Duration,
		ViewAngles: []float64{0, 1.5707963267948966, 3.141592653589793},
	}
	sc, err := workload.FromCatalog(name, knobs)
	if err != nil {
		return ScenarioResult{}, err
	}
	// Materialize the schedule so the latency matrix covers every join.
	events, err := workload.Collect(sc, setup.Seed)
	if err != nil {
		return ScenarioResult{}, err
	}
	joins := 0
	for _, ev := range events {
		if ev.Kind == workload.EventJoin {
			joins++
		}
	}
	lat, err := trace.GenerateLatencyMatrix(trace.DefaultLatencyConfig(joins+16, setup.Seed))
	if err != nil {
		return ScenarioResult{}, err
	}
	producers, err := setup.producers()
	if err != nil {
		return ScenarioResult{}, err
	}
	ctrl, err := setup.controllerWith(lat, 6000)
	if err != nil {
		return ScenarioResult{}, err
	}
	runner := workload.NewSimRunner()
	if o.Wallclock {
		runner = workload.NewParallelRunner()
	}
	opts := []workload.Option{
		workload.WithSeed(setup.Seed),
		workload.WithInbound(setup.InboundMbps),
		workload.WithValidation(!o.Wallclock || o.Validate),
		// The controller is the canonical injector, so fault-bearing
		// scenarios (outage, cdn-collapse) run out of the box.
		workload.WithInjector(ctrl),
	}
	for _, s := range o.Sinks {
		opts = append(opts, workload.WithSink(s))
	}
	tracker := workload.TrackAcceptance(ctrl)
	res, err := runner.Run(context.Background(), ctrl, producers, workload.Schedule(name, events), opts...)
	totals := tracker.Stop()
	if err != nil {
		return ScenarioResult{}, fmt.Errorf("scenario %s: %w", name, err)
	}
	if err := ctrl.Validate(); err != nil {
		return ScenarioResult{}, fmt.Errorf("scenario %s: invariants after run: %w", name, err)
	}
	if totals.EventsDropped == 0 && totals.Accepted != res.Joins {
		return ScenarioResult{}, fmt.Errorf("scenario %s: event stream counted %d admissions, runner says %d",
			name, totals.Accepted, res.Joins)
	}
	if totals.EventsDropped == 0 && totals.MigratedIn != res.Migrations {
		return ScenarioResult{}, fmt.Errorf("scenario %s: event stream counted %d migration arrivals, runner says %d",
			name, totals.MigratedIn, res.Migrations)
	}
	return ScenarioResult{
		Scenario:          name,
		Wallclock:         o.Wallclock,
		Events:            len(events),
		Joins:             res.Joins,
		Rejected:          res.Rejected,
		Leaves:            res.Leaves,
		ViewChanges:       res.ViewChanges,
		Migrations:        res.Migrations,
		MigrationsBounced: res.MigrationsBounced,
		PeakViewers:       res.PeakViewers,
		Regions:           res.Regions,
		Elapsed:           res.Elapsed,
		JoinsPerSec:       res.JoinsPerSec,
		FinalAcceptance:   res.FinalAcceptance,
		MinAcceptance:     res.MinAcceptance,
		StreamAccepted:    totals.Accepted,
		StreamRejected:    totals.Rejected,
		EventsDropped:     totals.EventsDropped,
		Latency:           res.Latency,
	}, nil
}
