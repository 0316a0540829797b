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

// ScenarioResult is one scenario run on a fresh controller: the runner's
// tally, with its counters cross-checked against the control plane's event
// stream and the plane validated after the last event.
type ScenarioResult struct {
	workload.Result
	// Executor names the runner: "sim" (discrete-event) or "wallclock"
	// (parallel batch pipeline).
	Executor string
	// Events is the length of the executed schedule.
	Events int
	// Stream is what the Controller.Subscribe stream reported for the same
	// run; its Evacuations count recovery-driven handoffs that landed on a
	// surviving region.
	Stream workload.AcceptanceTotals
}

// RunScenario instantiates a catalog scenario by name, sizes a controller
// for it, and executes it — by default on the wall-clock parallel runner,
// the first consumer that drives the sharded control plane the way the
// GSC/LSC deployment would.
func RunScenario(setup Setup, name string, o ScenarioOptions) (ScenarioResult, error) {
	if o.Duration <= 0 {
		o.Duration = 30 * time.Second
	}
	sc, err := workload.FromCatalog(name, workload.Knobs{
		Seed:       setup.Seed,
		Audience:   setup.Audience,
		Duration:   o.Duration,
		ViewAngles: []float64{0, 1.5707963267948966, 3.141592653589793},
	})
	if err != nil {
		return ScenarioResult{}, err
	}
	opts := []workload.Option{workload.WithValidation(!o.Wallclock || o.Validate)}
	for _, s := range o.Sinks {
		opts = append(opts, workload.WithSink(s))
	}
	return setup.execute(sc, o.Wallclock, opts...)
}

// execute is the one path a scenario takes through a controller here. It
// materialises the schedule so the latency matrix covers every join, builds
// a controller with the paper's 6000 Mbps CDN bound, and runs the schedule
// on the runner the mode selects, with the controller as fault injector so
// fault-bearing scenarios run out of the box. The run must end with every
// shard back up, the plane valid, and the event stream's admission and
// migration-arrival counts equal to the runner's.
func (s Setup) execute(sc workload.Scenario, wallclock bool, opts ...workload.Option) (ScenarioResult, error) {
	name := sc.Name()
	events, err := workload.Collect(sc, s.Seed)
	if err != nil {
		return ScenarioResult{}, fmt.Errorf("%s: %w", name, err)
	}
	joins := 0
	for _, ev := range events {
		if ev.Kind == workload.EventJoin {
			joins++
		}
	}
	lat, err := s.lats.matrix(trace.DefaultLatencyConfig(joins+16, s.Seed))
	if err != nil {
		return ScenarioResult{}, err
	}
	ctrl, producers, err := s.controllerWith(lat, 6000)
	if err != nil {
		return ScenarioResult{}, err
	}
	runner, executor := workload.NewSimRunner(), "sim"
	if wallclock {
		runner, executor = workload.NewParallelRunner(), "wallclock"
	}
	run := name + "/" + executor
	opts = append([]workload.Option{
		workload.WithSeed(s.Seed),
		workload.WithInbound(s.InboundMbps),
		workload.WithInjector(ctrl),
	}, opts...)
	tracker := workload.TrackAcceptance(ctrl)
	res, err := runner.Run(context.Background(), ctrl, producers, workload.Schedule(name, events), opts...)
	totals := tracker.Stop()
	if err != nil {
		return ScenarioResult{}, fmt.Errorf("%s: %w", run, err)
	}
	for r := 0; r < trace.DefaultRegions; r++ {
		if ctrl.ShardDown(trace.Region(r)) {
			return ScenarioResult{}, fmt.Errorf("%s: region %d still down after run", run, r)
		}
	}
	if err := ctrl.Validate(); err != nil {
		return ScenarioResult{}, fmt.Errorf("%s: invariants after run: %w", run, err)
	}
	// Replayed re-admissions during recovery happen below the event layer,
	// so the stream's Accepted total matches the runner's join count
	// exactly even under fault injection.
	if totals.EventsDropped == 0 && totals.Accepted != res.Joins {
		return ScenarioResult{}, fmt.Errorf("%s: event stream counted %d admissions, runner says %d",
			run, totals.Accepted, res.Joins)
	}
	if totals.EventsDropped == 0 && totals.MigratedIn != res.Migrations {
		return ScenarioResult{}, fmt.Errorf("%s: event stream counted %d migration arrivals, runner says %d",
			run, totals.MigratedIn, res.Migrations)
	}
	return ScenarioResult{Result: res, Executor: executor, Events: len(events), Stream: totals}, nil
}
