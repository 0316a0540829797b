//go:build soak

// The soak tier: long-horizon leak hunting, gated behind the `soak` build
// tag so the default suite stays fast. The tests drive the soak scenario —
// days of diurnal model time in which the audience fully turns over every
// cycle — through the deterministic sim runner, snapshot the heap at each
// day boundary under a forced GC, and assert the trajectory goes flat after
// warm-up. Any monotone growth across full-churn cycles is control-plane
// leakage: a registry entry not deleted, a slab slot not recycled, a node
// index not returned to the pool (that one also trips ErrMatrixExhausted).
//
//	go test -tags soak -run TestSoak ./internal/workload        # full soak
//	go test -tags soak -short -run TestSoak ./internal/workload # CI smoke
package workload

import (
	"context"
	"runtime"
	"testing"
	"time"

	"telecast/internal/model"
	"telecast/internal/session"
	"telecast/internal/trace"
)

// heapSnap is one day-boundary observation of the soak run.
type heapSnap struct {
	at        time.Duration
	heapAlloc uint64
	viewers   int
}

// heapSink snapshots the heap (after a forced GC, so the numbers are live
// bytes rather than allocator slack) every `every` of model time. It rides
// the runner's sample stream, so snapshots interleave with the schedule at
// exact cycle boundaries.
type heapSink struct {
	every time.Duration
	next  time.Duration
	snaps []heapSnap
}

func (h *heapSink) Record(s Sample) {
	if s.At < h.next {
		return
	}
	h.next += h.every
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	h.snaps = append(h.snaps, heapSnap{at: s.At, heapAlloc: ms.HeapAlloc, viewers: s.Viewers})
}

func (h *heapSink) Flush() error { return nil }

// runSoak executes `days` diurnal cycles of `day` model time each, with
// about `audiencePerDay` viewer generations per cycle, validating overlay
// invariants at every sample and snapshotting the heap at day boundaries.
// armed arms every shard's recovery journal before the run.
func runSoak(t *testing.T, days int, day time.Duration, audiencePerDay int, armed bool) []heapSnap {
	t.Helper()
	producers, err := model.NewSession(
		model.NewRingSite("A", 8, 2.0, 10),
		model.NewRingSite("B", 8, 2.0, 10),
	)
	if err != nil {
		t.Fatal(err)
	}
	// The node pool recycles indices on departure, so the matrix only needs
	// peak-concurrency headroom — if recycling ever leaks, the run fails
	// with ErrMatrixExhausted, which is exactly the signal we soak for.
	lat, err := trace.GenerateLatencyMatrix(trace.DefaultLatencyConfig(audiencePerDay+256, 7))
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := session.NewController(producers, lat)
	if err != nil {
		t.Fatal(err)
	}
	if armed {
		if err := ctrl.EnableRecovery(); err != nil {
			t.Fatal(err)
		}
	}
	sc, err := Soak(SoakConfig{
		Days:           days,
		DayLength:      day,
		BaseRate:       float64(audiencePerDay) / day.Seconds(),
		Swing:          0.6,
		ViewChangeRate: 0.02,
		OutboundLo:     0, OutboundHi: 12,
		ViewAngles: []float64{0, 1.57, 3.14},
	})
	if err != nil {
		t.Fatal(err)
	}
	sink := &heapSink{every: day, next: day}
	res, err := NewSimRunner().Run(context.Background(), ctrl, producers, sc,
		WithSeed(7),
		WithHorizon(time.Duration(days)*day),
		WithSampleEvery(day/20),
		WithValidation(true),
		WithSink(sink),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctrl.Validate(); err != nil {
		t.Fatalf("post-soak invariants: %v", err)
	}
	if res.Joins == 0 || res.Leaves == 0 {
		t.Fatalf("soak exercised nothing: %d joins, %d leaves", res.Joins, res.Leaves)
	}
	if wantJoins := days * audiencePerDay / 2; res.Joins < wantJoins {
		t.Fatalf("soak too thin: %d joins, want >= %d", res.Joins, wantJoins)
	}
	for _, s := range sink.snaps {
		t.Logf("day %5.1f: heap %6.2f MiB, %d viewers", s.at.Seconds()/day.Seconds(),
			float64(s.heapAlloc)/(1<<20), s.viewers)
	}
	return sink.snaps
}

// assertFlatHeap is the leak detection: after the warm-up cycle (intern
// tables, slabs, and map buckets grow to steady state during day one), the
// day-boundary heap must not trend upward. The tolerance absorbs GC noise
// and audience-phase wobble; a real per-viewer leak compounds across the
// full-churn cycles and blows straight through it.
func assertFlatHeap(t *testing.T, snaps []heapSnap) {
	t.Helper()
	if len(snaps) < 3 {
		t.Fatalf("need >= 3 day snapshots for a trajectory, got %d", len(snaps))
	}
	base := snaps[1] // end of day 2: first post-warm-up boundary
	const slackFrac = 0.20
	const slackBytes = 4 << 20
	limit := base.heapAlloc + uint64(float64(base.heapAlloc)*slackFrac) + slackBytes
	for _, s := range snaps[2:] {
		if s.heapAlloc > limit {
			t.Errorf("heap grew across full-churn cycles: %.2f MiB at day %.1f vs %.2f MiB baseline (+20%%+4MiB limit %.2f MiB)",
				float64(s.heapAlloc)/(1<<20), s.at.Seconds()/snaps[0].at.Seconds(),
				float64(base.heapAlloc)/(1<<20), float64(limit)/(1<<20))
		}
	}
}

// TestSoakHeapTrajectory is the full soak: 8 days of model time, ~16k
// viewer generations. In -short mode (the CI soak-smoke job) it shrinks to
// 4 days × 500 viewers, enough to catch gross per-viewer leaks in seconds.
//
// The audience is capped at 2000/day: around 5000/day, long-horizon churn
// trips the known κ-subscription convergence gap (ROADMAP open item
// "κ-subscription convergence" — the seed's scan-based trees fail the same
// schedule), surfacing as "layer spread exceeds kappa" from the validator.
// Raise the cap once that is fixed.
func TestSoakHeapTrajectory(t *testing.T) {
	days, day, audience := soakSize()
	assertFlatHeap(t, runSoak(t, days, day, audience, false))
}

// TestSoakHeapTrajectoryArmed is the same soak with every shard's recovery
// journal armed from the start and no snapshot fault ever injected: the
// journal is compacted into fresh snapshots as it outgrows the registry, so
// the heap must stay as flat as the unarmed run's.
func TestSoakHeapTrajectoryArmed(t *testing.T) {
	days, day, audience := soakSize()
	assertFlatHeap(t, runSoak(t, days, day, audience, true))
}

// soakSize is the full soak's shape, or the CI smoke's in -short mode.
func soakSize() (days int, day time.Duration, audience int) {
	if testing.Short() {
		return 4, 2 * time.Minute, 500
	}
	return 8, 10 * time.Minute, 2000
}
