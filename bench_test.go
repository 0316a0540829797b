// Benchmarks regenerating every figure of the paper's evaluation (§VII).
// Each BenchmarkFigXX runs the corresponding experiment end to end and
// reports the figure's headline quantity as a custom metric, so
// `go test -bench=. -benchmem` reproduces the whole evaluation and its
// numbers in one run. Micro-benchmarks for the hot control-plane paths
// (join, degree push-down, subscription) follow.
package telecast_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"telecast"
	"telecast/internal/experiments"
	"telecast/internal/telemetry"
	"telecast/internal/workload"
)

// benchSetup uses the paper's full 1000-viewer scale.
func benchSetup() experiments.Setup {
	return experiments.DefaultSetup(42)
}

func BenchmarkFig13a(b *testing.B) {
	setup := benchSetup()
	setup.Sizes = []int{200, 600, 1000}
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig13a(setup)
		if err != nil {
			b.Fatal(err)
		}
		last := res.Rows[len(res.Rows)-1]
		b.ReportMetric(last.Values["obw=0"], "cdnMbps@obw0")
		b.ReportMetric(last.Values["obw=0-12"], "cdnMbps@obw0-12")
	}
}

func BenchmarkFig13b(b *testing.B) {
	setup := benchSetup()
	setup.Sizes = []int{200, 600, 1000}
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig13b(setup)
		if err != nil {
			b.Fatal(err)
		}
		last := res.Rows[len(res.Rows)-1]
		b.ReportMetric(last.Values["obw=8"], "cdnFrac@obw8")
		b.ReportMetric(last.Values["obw=4-14"], "cdnFrac@obw4-14")
	}
}

func BenchmarkFig13c(b *testing.B) {
	setup := benchSetup()
	setup.Sizes = []int{200, 600, 1000}
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig13c(setup)
		if err != nil {
			b.Fatal(err)
		}
		last := res.Rows[len(res.Rows)-1]
		b.ReportMetric(last.Values["obw=0"], "rho@obw0")
		b.ReportMetric(last.Values["obw=8"], "rho@obw8")
	}
}

func BenchmarkFig14a(b *testing.B) {
	setup := benchSetup()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig14a(setup)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Layer0Share, "layer0Share")
		b.ReportMetric(res.AtMost4Share, "atMost4Share")
	}
}

func BenchmarkFig14b(b *testing.B) {
	setup := benchSetup()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig14b(setup)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.AllStreamsShare, "allStreamsShare")
		b.ReportMetric(res.ZeroStreamsShare, "zeroStreamsShare")
	}
}

func BenchmarkFig14c(b *testing.B) {
	setup := benchSetup()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig14c(setup)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Join95th*1000, "joinP95ms")
		b.ReportMetric(res.ViewChange95th*1000, "viewChangeP95ms")
	}
}

func BenchmarkFig15a(b *testing.B) {
	setup := benchSetup()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig15a(setup)
		if err != nil {
			b.Fatal(err)
		}
		// The paper's headline: the mid-sweep gain over Random.
		var maxGain float64
		for _, row := range res.Rows {
			if gain := row.TeleCast - row.Random; gain > maxGain {
				maxGain = gain
			}
		}
		b.ReportMetric(maxGain, "maxGainOverRandom")
	}
}

func BenchmarkFig15b(b *testing.B) {
	setup := benchSetup()
	setup.Sizes = []int{200, 600, 1000}
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig15b(setup)
		if err != nil {
			b.Fatal(err)
		}
		last := res.Rows[len(res.Rows)-1]
		b.ReportMetric(last.TeleCast, "telecastRho@1000")
		b.ReportMetric(last.Random, "randomRho@1000")
	}
}

func BenchmarkAblationOutbound(b *testing.B) {
	setup := benchSetup()
	setup.Audience = 600
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunAblationOutbound(setup)
		if err != nil {
			b.Fatal(err)
		}
		last := rows[len(rows)-1]
		b.ReportMetric(last.RoundRobin.MeanStreams, "rrStreamsPerViewer")
		b.ReportMetric(last.PriorityOnly.MeanStreams, "prioStreamsPerViewer")
	}
}

func BenchmarkAblationPushdown(b *testing.B) {
	setup := benchSetup()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunAblationPushdown(setup)
		if err != nil {
			b.Fatal(err)
		}
		last := rows[len(rows)-1]
		b.ReportMetric(last.PushDownDepth, "pushdownDepth")
		b.ReportMetric(last.FIFODepth, "fifoDepth")
	}
}

func BenchmarkAblationGrouping(b *testing.B) {
	setup := benchSetup()
	setup.Audience = 600
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunAblationGrouping(setup)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].CDNFraction, "cdnFrac@1view")
		b.ReportMetric(rows[len(rows)-1].CDNFraction, "cdnFrac@8views")
	}
}

// BenchmarkJoin measures control-plane admission throughput at a true
// 1000-viewer steady state: every iteration admits one viewer into the
// populated overlay and departs the oldest one (full victim recovery), so
// the system size — and therefore the cost of the op being measured — does
// not depend on b.N. The joins/s metric is the headline the perf
// trajectory (BENCH_control_plane.json) tracks.
//
// The telemetry=off/on variants pin the observability tax: with the
// collector disarmed every hook is one atomic load, and the armed variant
// must stay within the bench guard's delta of the disarmed one.
func BenchmarkJoin(b *testing.B) {
	b.Run("telemetry=off", func(b *testing.B) { benchJoin(b, false) })
	b.Run("telemetry=on", func(b *testing.B) { benchJoin(b, true) })
}

func benchJoin(b *testing.B, telemetryOn bool) {
	producers, err := telecast.NewSession(
		telecast.NewRingSite("A", 8, 2.0, 10),
		telecast.NewRingSite("B", 8, 2.0, 10),
	)
	if err != nil {
		b.Fatal(err)
	}
	const fleet = 1000
	lat, err := telecast.GenerateLatencyMatrix(telecast.DefaultLatencyConfig(fleet+100, 42))
	if err != nil {
		b.Fatal(err)
	}
	ctrl, err := telecast.NewController(producers, lat,
		telecast.WithCDN(unboundedCDN()), // unbounded: measure algorithm cost
		telecast.WithTelemetry(telemetryOn))
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	view := telecast.NewUniformView(producers, 0)
	for i := 0; i < fleet; i++ {
		id := telecast.ViewerID(fmt.Sprintf("w%06d", i))
		if _, err := ctrl.Join(ctx, id, 12, float64(i%13), view); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		join := telecast.ViewerID(fmt.Sprintf("w%06d", fleet+i))
		if _, err := ctrl.Join(ctx, join, 12, float64((fleet+i)%13), view); err != nil {
			b.Fatal(err)
		}
		leave := telecast.ViewerID(fmt.Sprintf("w%06d", i))
		if err := ctrl.Leave(ctx, leave); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "joins/s")
	if telemetryOn {
		// Sanity: the armed collector actually recorded the run.
		snap := ctrl.Telemetry().Snapshot()
		if got := snap.Ops[telemetry.OpJoin].Total().Count; got == 0 {
			b.Fatal("telemetry=on recorded no joins")
		}
	}
}

// unboundedCDN is the paper's CDN with the egress cap removed.
func unboundedCDN() telecast.CDNConfig {
	cfg := telecast.DefaultCDNConfig()
	cfg.OutboundCapacityMbps = 0
	return cfg
}

// BenchmarkViewChange measures the full two-phase view change (leave trees,
// victim recovery, re-join, subscription propagation) in a populated overlay.
func BenchmarkViewChange(b *testing.B) {
	producers, err := telecast.NewSession(
		telecast.NewRingSite("A", 8, 2.0, 10),
		telecast.NewRingSite("B", 8, 2.0, 10),
	)
	if err != nil {
		b.Fatal(err)
	}
	lat, err := telecast.GenerateLatencyMatrix(telecast.DefaultLatencyConfig(700, 42))
	if err != nil {
		b.Fatal(err)
	}
	ctrl, err := telecast.NewController(producers, lat, telecast.WithCDN(unboundedCDN()))
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	views := []telecast.View{
		telecast.NewUniformView(producers, 0),
		telecast.NewUniformView(producers, 1.5),
	}
	const fleet = 500
	for i := 0; i < fleet; i++ {
		id := telecast.ViewerID(fmt.Sprintf("w%06d", i))
		if _, err := ctrl.Join(ctx, id, 12, float64(i%13), views[0]); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := telecast.ViewerID(fmt.Sprintf("w%06d", i%fleet))
		if _, err := ctrl.ChangeView(ctx, id, views[(i+1)%len(views)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConcurrentJoin measures batched join throughput as the region
// count — and so the number of concurrently-locked LSC shards — grows. The
// joins/s custom metric is the headline: with the sharded control plane it
// should rise with the region count (16-region throughput > 1-region). The
// "/sub" variants run the same batch with one event-stream subscriber
// attached and must stay within ~10% of the bare runs: observation flows
// through per-shard ring buffers, never through the admission path's locks.
func BenchmarkConcurrentJoin(b *testing.B) {
	for _, regions := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("regions=%d", regions), func(b *testing.B) {
			benchConcurrentJoin(b, regions, false)
		})
		b.Run(fmt.Sprintf("regions=%d/sub", regions), func(b *testing.B) {
			benchConcurrentJoin(b, regions, true)
		})
	}
}

func benchConcurrentJoin(b *testing.B, regions int, subscribe bool) {
	const audience = 2000
	producers, err := telecast.NewSession(
		telecast.NewRingSite("A", 8, 2.0, 10),
		telecast.NewRingSite("B", 8, 2.0, 10),
	)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	latCfg := telecast.DefaultLatencyConfig(audience+regions+1, 42)
	latCfg.Regions = regions
	var joined int
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		lat, err := telecast.GenerateLatencyMatrix(latCfg)
		if err != nil {
			b.Fatal(err)
		}
		ctrl, err := telecast.NewController(producers, lat,
			telecast.WithCDN(unboundedCDN())) // unbounded: measure control-plane cost
		if err != nil {
			b.Fatal(err)
		}
		var sub *telecast.Subscription
		drained := make(chan int, 1)
		if subscribe {
			sub = ctrl.Subscribe()
			go func() {
				n := 0
				for range sub.Events() {
					n++
				}
				drained <- n
			}()
		}
		view := telecast.NewUniformView(producers, 0)
		reqs := make([]telecast.JoinRequest, audience)
		for j := range reqs {
			reqs[j] = telecast.JoinRequest{
				ID:           telecast.ViewerID(fmt.Sprintf("w%06d", j)),
				InboundMbps:  12,
				OutboundMbps: float64(j % 13),
				View:         view,
			}
		}
		b.StartTimer()
		for _, out := range ctrl.JoinBatch(ctx, reqs) {
			if out.Err != nil {
				b.Fatal(out.Err)
			}
		}
		joined += audience
		b.StopTimer()
		if subscribe {
			// Flush before Close: delivery is asynchronous, and closing an
			// undelivered subscription discards its backlog.
			sub.Flush()
			sub.Close()
			ctrl.Close()
			if n := <-drained; n == 0 {
				b.Fatal("subscriber saw no events")
			}
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(joined)/b.Elapsed().Seconds(), "joins/s")
}

// BenchmarkMigration measures the cross-region handoff at a populated
// steady state: a 1000-viewer fleet spread over 4 LSC shards, each
// iteration re-homing one viewer to the next region — source extract with
// victim recovery, destination re-admission from the preserved request,
// route rebind. The migrations/s metric joins the perf trajectory.
func BenchmarkMigration(b *testing.B) {
	producers, err := telecast.NewSession(
		telecast.NewRingSite("A", 8, 2.0, 10),
		telecast.NewRingSite("B", 8, 2.0, 10),
	)
	if err != nil {
		b.Fatal(err)
	}
	const fleet = 1000
	const regions = 4
	latCfg := telecast.DefaultLatencyConfig(fleet+fleet/2, 42)
	latCfg.Regions = regions
	lat, err := telecast.GenerateLatencyMatrix(latCfg)
	if err != nil {
		b.Fatal(err)
	}
	ctrl, err := telecast.NewController(producers, lat,
		telecast.WithCDN(unboundedCDN())) // unbounded: measure handoff cost
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	view := telecast.NewUniformView(producers, 0)
	home := make([]telecast.Region, fleet)
	for i := 0; i < fleet; i++ {
		home[i] = telecast.Region(i % regions)
		_, err := ctrl.Admit(ctx, telecast.JoinRequest{
			ID:          telecast.ViewerID(fmt.Sprintf("w%06d", i)),
			InboundMbps: 12, OutboundMbps: float64(i % 13),
			View: view, Region: telecast.InRegion(home[i]),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % fleet
		next := telecast.Region((int(home[k]) + 1) % regions)
		id := telecast.ViewerID(fmt.Sprintf("w%06d", k))
		out, err := ctrl.Migrate(ctx, id, telecast.MigrateRequest{To: next, Reason: "bench"})
		if err != nil {
			b.Fatal(err)
		}
		if out.Restored || out.Departed {
			b.Fatalf("handoff bounced at iteration %d", i)
		}
		home[k] = next
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "migrations/s")
}

// BenchmarkWorkloadParallel measures the wall-clock scenario executor: a
// regional-hotspot schedule replayed through JoinBatch/DepartBatch fan-outs
// across the LSC shards. The joins/s metric is the achieved admission
// throughput of the full workload loop (binning, batching, tallying), the
// number the scenario experiment reports — tracked in the perf trajectory
// alongside the raw batch benchmarks.
func BenchmarkWorkloadParallel(b *testing.B) {
	const seed = 42
	sc, err := workload.FromCatalog("regional-hotspot", workload.Knobs{
		Seed: seed, Audience: 1000, Duration: 30 * time.Second,
	})
	if err != nil {
		b.Fatal(err)
	}
	events, err := workload.Collect(sc, seed)
	if err != nil {
		b.Fatal(err)
	}
	joins := 0
	for _, ev := range events {
		if ev.Kind == workload.EventJoin {
			joins++
		}
	}
	producers, err := telecast.NewSession(
		telecast.NewRingSite("A", 8, 2.0, 10),
		telecast.NewRingSite("B", 8, 2.0, 10),
	)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	var admissions int
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		lat, err := telecast.GenerateLatencyMatrix(telecast.DefaultLatencyConfig(joins+16, seed))
		if err != nil {
			b.Fatal(err)
		}
		ctrl, err := telecast.NewController(producers, lat, telecast.WithCDN(unboundedCDN()))
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, err := workload.NewParallelRunner().Run(ctx, ctrl, producers,
			workload.Schedule("regional-hotspot", events), workload.WithSeed(seed))
		if err != nil {
			b.Fatal(err)
		}
		admissions += res.Joins + res.Rejected
	}
	b.ReportMetric(float64(admissions)/b.Elapsed().Seconds(), "joins/s")
}

// BenchmarkChurn runs the dynamic scenario: flash crowd, Poisson churn,
// view changes, invariants validated every simulated second.
func BenchmarkChurn(b *testing.B) {
	setup := benchSetup()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunChurn(setup)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.FinalAcceptance, "finalAcceptance")
		b.ReportMetric(float64(res.PeakViewers), "peakViewers")
	}
}

// BenchmarkAblationLayerFade contrasts the ℜ=τr fade-out placement with the
// naive bottom-of-layer placement (ablation A3).
func BenchmarkAblationLayerFade(b *testing.B) {
	setup := benchSetup()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunAblationLayerFade(setup)
		if err != nil {
			b.Fatal(err)
		}
		last := rows[len(rows)-1]
		b.ReportMetric(last.FadeMeanMaxLayer, "fadeMeanMaxLayer")
		b.ReportMetric(last.NaiveMeanMaxLayer, "naiveMeanMaxLayer")
	}
}

// BenchmarkAblationViewChange contrasts the two-phase view change with a
// plain re-join (ablation A5).
func BenchmarkAblationViewChange(b *testing.B) {
	setup := benchSetup()
	setup.Audience = 600
	for i := 0; i < b.N; i++ {
		row, err := experiments.RunAblationViewChange(setup)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(row.TwoPhaseP95*1000, "twoPhaseP95ms")
		b.ReportMetric(row.PlainP95*1000, "plainP95ms")
	}
}
