package experiments

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"telecast/internal/model"
	"telecast/internal/session"
	"telecast/internal/telemetry"
	"telecast/internal/trace"
	"telecast/internal/workload"
)

// ConcurrentJoinRow is one point of the control-plane scaling measurement:
// the same audience admitted through JoinBatch against a latency substrate
// partitioned into a varying number of regions, i.e. a varying number of
// concurrently-locked LSC shards.
type ConcurrentJoinRow struct {
	Regions int
	Viewers int
	// Admitted and Rejected come from the telemetry collector's outcome
	// counters — the same cells a /metrics scrape exposes — and are
	// cross-checked against the control plane's event stream.
	Admitted    int
	Rejected    int
	Elapsed     time.Duration
	JoinsPerSec float64
	// JoinP99 is the approximate 99th-percentile wall-clock join latency
	// from the telemetry histograms for this run.
	JoinP99 time.Duration
}

// RunConcurrentJoin measures batched join throughput as the region (shard)
// count grows. The CDN is unbounded so the measurement isolates the
// control-plane cost — overlay construction, tree insertion, subscription
// propagation — rather than admission-control rejections. With a sharded
// control plane, throughput should rise with the region count.
//
// Admission outcomes are read from the telemetry collector and verified
// against a Controller.Subscribe tally, so the run doubles as an end-to-end
// check that neither observation path loses an operation.
func RunConcurrentJoin(setup Setup, regionCounts []int) ([]ConcurrentJoinRow, error) {
	ctx := context.Background()
	rows := make([]ConcurrentJoinRow, 0, len(regionCounts))
	for _, regions := range regionCounts {
		if regions <= 0 {
			return nil, fmt.Errorf("concurrent join: region count must be positive, got %d", regions)
		}
		latCfg := trace.DefaultLatencyConfig(setup.Audience+regions+1, setup.Seed)
		latCfg.Regions = regions
		lat, err := setup.lats.matrix(latCfg)
		if err != nil {
			return nil, err
		}
		ctrl, producers, err := setup.controllerWith(lat, 0)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(setup.Seed))
		obw := UniformObw(0, 12)
		reqs := make([]session.JoinRequest, setup.Audience)
		for i := range reqs {
			angle := setup.ViewAngles[i%len(setup.ViewAngles)]
			reqs[i] = session.JoinRequest{
				ID:           model.ViewerID(fmt.Sprintf("v%05d", i)),
				InboundMbps:  setup.InboundMbps,
				OutboundMbps: obw.Draw(rng),
				View:         model.NewUniformView(producers, angle),
			}
		}

		tracker := workload.TrackAcceptance(ctrl)

		start := time.Now()
		outs := ctrl.JoinBatch(ctx, reqs)
		elapsed := time.Since(start)
		for _, out := range outs {
			if out.Err != nil && !errors.Is(out.Err, session.ErrRejected) {
				return nil, fmt.Errorf("concurrent join (%d regions): %w", regions, out.Err)
			}
		}
		// The collector is this run's system of record: one outcome cell per
		// admitted/rejected join, exactly what an operator's scrape would see.
		snap := ctrl.Telemetry().Snapshot()
		joins := snap.Ops[telemetry.OpJoin]
		admitted := int(joins.Outcomes[telemetry.OutcomeOK])
		rejected := int(joins.Outcomes[telemetry.OutcomeRejected])
		joinHist := joins.Total()
		totals := tracker.Stop()
		if totals.EventsDropped > 0 {
			return nil, fmt.Errorf("concurrent join (%d regions): event stream dropped %d events",
				regions, totals.EventsDropped)
		}
		if totals.Accepted != admitted {
			return nil, fmt.Errorf("concurrent join (%d regions): event stream counted %d admissions, telemetry says %d",
				regions, totals.Accepted, admitted)
		}
		if totals.Rejected != rejected {
			return nil, fmt.Errorf("concurrent join (%d regions): event stream counted %d rejections, telemetry says %d",
				regions, totals.Rejected, rejected)
		}
		if err := ctrl.Validate(); err != nil {
			return nil, fmt.Errorf("concurrent join (%d regions): invariants: %w", regions, err)
		}
		rate := 0.0
		if elapsed > 0 {
			rate = float64(len(reqs)) / elapsed.Seconds()
		}
		rows = append(rows, ConcurrentJoinRow{
			Regions:     regions,
			Viewers:     len(reqs),
			Admitted:    admitted,
			Rejected:    rejected,
			Elapsed:     elapsed,
			JoinsPerSec: rate,
			JoinP99:     joinHist.Quantile(0.99),
		})
	}
	return rows, nil
}
