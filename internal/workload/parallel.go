package workload

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"telecast/internal/model"
	"telecast/internal/session"
	"telecast/internal/telemetry"
)

// runner is the one scenario executor. It streams the scenario in time
// order, bins events, and dispatches each bin through the unified
// ControlPlane seam as schedule-order runs of same-kind Requests. Faults are
// barriers, samples are taken on a quiescent plane between bins, and events
// past the horizon never execute.
//
// Serial mode (NewSimRunner) is the deterministic discrete-event replay:
// every event is its own bin, flushed inline as soon as the next event
// arrives and before anything else executes, so each run reaching the plane
// is one request, which the local plane answers with the controller's
// single-op method, and a sample at time t sees exactly the events at or
// before t.
//
// Wall-clock mode (NewParallelRunner) bins due events into windows of
// BatchWindow simulated time, which the plane executes through
// JoinBatch/DepartBatch/MigrateBatch fan-outs (and a bounded view-change
// pool) across the LSC shards. Bins are pipelined, not barriered: bin k+1 is
// dispatched as soon as its viewer-ID set is disjoint from every bin still
// in flight, so its prepare/routing phase overlaps bin k's shard admissions.
// Two events for one viewer can therefore never reorder — a bin naming
// viewer X waits until every earlier bin holding X has fully settled — and
// within a bin, consecutive events of one kind form a run, and runs execute
// in schedule order. The MaxInFlight option stays the global backpressure
// bound: the pipeline admits a new bin only while the total in-flight event
// count has room. This is the deployment shape the paper's GSC/LSC split
// describes: many simultaneous arrivals hit region shards concurrently, and
// the Result reports the achieved joins/s.
type runner struct{ serial bool }

func (r runner) Run(ctx context.Context, ctrl *session.Controller, producers *model.Session, sc Scenario, opts ...Option) (Result, error) {
	o := buildOptions(opts)
	cp := NewLocalPlane(ctrl, producers, o.MaxInFlight)
	return runScenario(ctx, cp, ctrl, sc, o, r.serial)
}

// RunRemote executes a scenario against an arbitrary ControlPlane — the seam
// `telecast-node replay` uses to drive a catalog scenario over the HTTP wire
// with the pipeline semantics (binning, disjoint-bin dispatch, MaxInFlight
// windows) intact. Sampling reads ControlPlane.Counters; the local-only
// monitor advance and invariant validation are skipped.
func RunRemote(ctx context.Context, cp ControlPlane, sc Scenario, opts ...Option) (Result, error) {
	return runScenario(ctx, cp, nil, sc, buildOptions(opts), false)
}

// runScenario is the executor's event loop. local is non-nil only when the
// plane wraps an in-process controller, which unlocks the monitor advance
// and the per-sample invariant checker.
func runScenario(ctx context.Context, cp ControlPlane, local *session.Controller, sc Scenario, o Options, serial bool) (Result, error) {
	rng := rand.New(rand.NewSource(o.Seed))
	stats := NewStatsSink()
	sinks := multiSink(append(append([]Sink{}, o.Sinks...), stats))
	t := newTally(sc.Name())
	telBefore, tel := telemetryWindow(local)
	ex := newExecutor(ctx, cp, o, t, tel, serial)

	start := time.Now()
	var (
		bin        []Event
		binStart   time.Duration
		lastAt     time.Duration
		nextSample = o.SampleEvery
		horizon    time.Duration
	)
	// Sampling needs a quiescent control plane, so the pipeline is drained
	// before any sample point is taken (samples are sparse relative to bins;
	// the common bin boundary keeps the pipeline full).
	sampleUpTo := func(limit time.Duration, inclusive bool) error {
		for nextSample < limit || (inclusive && nextSample == limit) {
			if local != nil {
				if mon := local.Monitor(); mon != nil {
					mon.Advance(nextSample)
				}
			}
			counters, err := cp.Counters(ctx)
			if err != nil {
				return fmt.Errorf("counters at %v: %w", nextSample, err)
			}
			sinks.Record(t.sample(nextSample, counters))
			if o.Validate && local != nil {
				if err := local.Validate(); err != nil {
					return fmt.Errorf("invariants at %v: %w", nextSample, err)
				}
			}
			nextSample += o.SampleEvery
		}
		return nil
	}
	for {
		ev, ok := sc.Next(rng)
		if !ok {
			break
		}
		// Events past the horizon never execute (events exactly at the
		// horizon still do).
		if o.Horizon > 0 && ev.At > o.Horizon {
			break
		}
		if ev.At < lastAt {
			ex.drain()
			return Result{}, fmt.Errorf("workload: scenario %s emitted %v at %v after %v: out of order",
				sc.Name(), ev.Kind, ev.At, lastAt)
		}
		lastAt = ev.At
		if ev.Kind == EventFault {
			// Faults are pipeline barriers: every earlier event settles
			// before the fault fires, so a kill lands on a quiescent shard
			// and the next bin observes the post-fault control plane.
			if err := ex.dispatch(bin); err != nil {
				return Result{}, err
			}
			bin = nil
			if err := ex.drain(); err != nil {
				return Result{}, err
			}
			// Sample points before the fault see the pre-fault plane.
			if err := sampleUpTo(ev.At, false); err != nil {
				return Result{}, err
			}
			if err := injectFault(ctx, &o, ev); err != nil {
				return Result{}, err
			}
			t.res.FaultsInjected++
			continue
		}
		if len(bin) > 0 && (serial || ev.At >= binStart+o.BatchWindow) {
			if err := ex.dispatch(bin); err != nil {
				return Result{}, err
			}
			bin = nil // the dispatched bin owns its backing array now
		}
		if len(bin) == 0 {
			if nextSample < ev.At {
				// Sample points before ev.At must see every earlier event
				// settled and quiescent; bins without a due sample keep
				// flowing through the pipeline un-barriered.
				if err := ex.drain(); err != nil {
					return Result{}, err
				}
				if err := sampleUpTo(ev.At, false); err != nil {
					return Result{}, err
				}
			}
			binStart = ev.At
		}
		bin = append(bin, ev)
	}
	if err := ex.dispatch(bin); err != nil {
		return Result{}, err
	}
	if err := ex.drain(); err != nil {
		return Result{}, err
	}
	horizon = o.Horizon
	if horizon <= 0 {
		horizon = lastAt
	}
	if err := sampleUpTo(horizon, true); err != nil {
		return Result{}, err
	}
	t.res.Elapsed = time.Since(start)
	if secs := t.res.Elapsed.Seconds(); secs > 0 {
		t.res.JoinsPerSec = float64(t.res.Joins+t.res.Rejected) / secs
	}
	res, err := t.finish(stats, sinks)
	if err == nil && tel != nil {
		res.Latency = LatencyFromTelemetry(telBefore, tel.Snapshot())
	}
	return res, err
}

// executor executes bins on behalf of the runner: inline in serial mode,
// otherwise pipelining bins whose viewer sets are disjoint.
type executor struct {
	ctx    context.Context
	cp     ControlPlane
	o      Options
	serial bool

	// t is the run tally; tmu guards it because concurrently in-flight bins
	// record outcomes concurrently. (The runner itself reads the tally only
	// after drain, under the happens-before edge mu provides.)
	t   *tally
	tmu sync.Mutex

	// tel mirrors the pipeline's in-flight event count onto the telemetry
	// window-depth gauge; nil when the run has no local enabled collector.
	tel *telemetry.Collector

	// mu guards the pipeline state below; cond signals bins settling.
	mu       sync.Mutex
	cond     *sync.Cond
	inflight []*binJob
	events   int   // events across in-flight bins; MaxInFlight bounds it
	err      error // first bin failure; fails every later dispatch
}

// binJob tracks one in-flight bin: its viewer-ID set (the disjointness rule)
// and its event count (the backpressure bound).
type binJob struct {
	ids map[model.ViewerID]struct{}
	n   int
}

func newExecutor(ctx context.Context, cp ControlPlane, o Options, t *tally, tel *telemetry.Collector, serial bool) *executor {
	ex := &executor{ctx: ctx, cp: cp, o: o, serial: serial, t: t, tel: tel}
	ex.cond = sync.NewCond(&ex.mu)
	return ex
}

// dispatch hands one bin to the pipeline. In serial mode it flushes the bin
// inline. Otherwise it blocks while any in-flight bin shares a viewer with
// this one — the disjointness rule that preserves per-viewer event order —
// or while the bin would overflow the MaxInFlight window, then executes the
// bin on its own goroutine so the next bin's routing and view composition
// overlap this bin's shard admissions. A bin larger than MaxInFlight on its
// own is admitted alone (its runs are chunked internally). Dispatch takes
// ownership of the bin slice.
func (ex *executor) dispatch(bin []Event) error {
	if len(bin) == 0 {
		return nil
	}
	if ex.serial {
		return ex.flush(bin)
	}
	ids := make(map[model.ViewerID]struct{}, len(bin))
	for _, ev := range bin {
		ids[ev.Viewer] = struct{}{}
	}
	job := &binJob{ids: ids, n: len(bin)}
	ex.mu.Lock()
	for ex.err == nil && (ex.overlapsLocked(ids) || (ex.events > 0 && ex.events+job.n > ex.o.MaxInFlight)) {
		ex.cond.Wait()
	}
	if ex.err != nil {
		err := ex.err
		ex.mu.Unlock()
		return err
	}
	ex.inflight = append(ex.inflight, job)
	ex.events += job.n
	ex.tel.SetInFlight(int64(ex.events))
	ex.mu.Unlock()
	go func() {
		err := ex.flush(bin)
		ex.mu.Lock()
		for i, j := range ex.inflight {
			if j == job {
				ex.inflight = append(ex.inflight[:i], ex.inflight[i+1:]...)
				break
			}
		}
		ex.events -= job.n
		ex.tel.SetInFlight(int64(ex.events))
		if err != nil && ex.err == nil {
			ex.err = err
		}
		ex.cond.Broadcast()
		ex.mu.Unlock()
	}()
	return nil
}

// overlapsLocked reports whether ids intersects any in-flight bin's viewer
// set. Callers hold mu. Bins are adjacent windows of one schedule, so the
// sets are small and the scan is cheap next to a batch dispatch.
func (ex *executor) overlapsLocked(ids map[model.ViewerID]struct{}) bool {
	for _, job := range ex.inflight {
		small, big := ids, job.ids
		if len(big) < len(small) {
			small, big = big, small
		}
		for id := range small {
			if _, ok := big[id]; ok {
				return true
			}
		}
	}
	return false
}

// drain blocks until every in-flight bin has settled, returning the first
// bin failure. After drain the control plane is quiescent (safe to sample
// and validate) and the tally is safe to read from the runner goroutine.
func (ex *executor) drain() error {
	ex.mu.Lock()
	for len(ex.inflight) > 0 {
		ex.cond.Wait()
	}
	err := ex.err
	ex.mu.Unlock()
	return err
}

// flush executes one bin: schedule-order runs of consecutive same-kind
// events, each translated into the unified request vocabulary and handed to
// the ControlPlane a MaxInFlight window at a time. No per-kind dispatch
// lives here anymore — stale-event filtering and dedup are the only
// kind-specific steps, and they are runner state, not control-plane calls.
func (ex *executor) flush(bin []Event) error {
	for start := 0; start < len(bin); {
		end := start + 1
		for end < len(bin) && bin[end].Kind == bin[start].Kind {
			end++
		}
		run := ex.buildRun(bin[start:end])
		for at := 0; at < len(run); at += ex.o.MaxInFlight {
			chunk := run[at:min(at+ex.o.MaxInFlight, len(run))]
			outs, err := ex.cp.Exec(ex.ctx, chunk)
			if err != nil {
				return fmt.Errorf("workload %s run: %w", chunk[0].Kind, err)
			}
			if err := ex.apply(chunk[0].Kind, outs); err != nil {
				return err
			}
		}
		start = end
	}
	return nil
}

// buildRun translates one same-kind event run into Requests, applying the
// runner-side filters that need the tally: leaves and migrations of viewers
// the run never routed are stale and skipped (a duplicate inside the run
// counts), and a migration run targeting one viewer twice keeps only the
// last destination — the intermediate hop is unobservable at batch
// granularity, and dedup keeps MigrateBatch from racing a viewer against
// itself. Reading the routed set is safe against concurrent bins because
// in-flight viewer sets are disjoint.
func (ex *executor) buildRun(run []Event) []Request {
	kind := run[0].Kind
	reqs := make([]Request, 0, len(run))
	ex.tmu.Lock()
	defer ex.tmu.Unlock()
	switch kind {
	case EventJoin:
		for _, ev := range run {
			reqs = append(reqs, Request{
				Kind:         EventJoin,
				ID:           ev.Viewer,
				InboundMbps:  ex.o.InboundMbps,
				OutboundMbps: ev.OutboundMbps,
				ViewAngle:    ev.ViewAngle,
				Region:       ev.Region,
			})
		}
	case EventLeave:
		seen := make(map[model.ViewerID]bool, len(run))
		for _, ev := range run {
			if _, ok := ex.t.routed[ev.Viewer]; ok && !seen[ev.Viewer] {
				seen[ev.Viewer] = true
				reqs = append(reqs, Request{Kind: EventLeave, ID: ev.Viewer})
			}
		}
	case EventViewChange:
		for _, ev := range run {
			if _, ok := ex.t.routed[ev.Viewer]; ok {
				reqs = append(reqs, Request{Kind: EventViewChange, ID: ev.Viewer, ViewAngle: ev.ViewAngle})
			}
		}
	case EventMigrate:
		last := make(map[model.ViewerID]int, len(run))
		for _, ev := range run {
			if _, ok := ex.t.routed[ev.Viewer]; !ok {
				continue
			}
			if _, ok := ev.Region.Region(); !ok {
				continue
			}
			rq := Request{Kind: EventMigrate, ID: ev.Viewer, Region: ev.Region, Cause: "mobility"}
			if i, dup := last[ev.Viewer]; dup {
				reqs[i] = rq
				continue
			}
			last[ev.Viewer] = len(reqs)
			reqs = append(reqs, rq)
		}
	}
	return reqs
}

// apply folds one chunk of outcomes into the tally, failing the run on any
// protocol error. Admission rejections (and, for migrations, an exhausted
// destination node pool) are workload outcomes, not run errors.
func (ex *executor) apply(kind EventKind, outs []Outcome) error {
	ex.tmu.Lock()
	defer ex.tmu.Unlock()
	for _, out := range outs {
		// ErrShardDown is a fault outcome on every kind: the operation was
		// refused by a killed shard with the session state left total (joins
		// unwound, leaves still routed, migrations settled on the surviving
		// side) — counted, never fatal.
		if errors.Is(out.Err, session.ErrShardDown) {
			ex.t.res.ShardDown++
			if kind == EventMigrate {
				ex.t.migrate(out.ID, out)
			}
			continue
		}
		switch kind {
		case EventJoin:
			if out.Err != nil && !errors.Is(out.Err, session.ErrRejected) {
				return fmt.Errorf("workload join %s: %w", out.ID, out.Err)
			}
			ex.t.join(out.ID, out.Region, out.Err == nil)
		case EventLeave:
			if out.Err != nil {
				return fmt.Errorf("workload leave %s: %w", out.ID, out.Err)
			}
			ex.t.leave(out.ID)
		case EventViewChange:
			if out.Err != nil && !errors.Is(out.Err, session.ErrRejected) {
				return fmt.Errorf("workload view change %s: %w", out.ID, out.Err)
			}
			ex.t.viewChange(out.ID, out.Admitted)
		case EventMigrate:
			if out.Err != nil && !errors.Is(out.Err, session.ErrRejected) && !errors.Is(out.Err, session.ErrMatrixExhausted) {
				return fmt.Errorf("workload migrate %s: %w", out.ID, out.Err)
			}
			ex.t.migrate(out.ID, out)
		}
	}
	return nil
}
