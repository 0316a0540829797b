// Memory-footprint benchmarks: how many bytes one steady-state viewer costs
// on a single box, and what the GC pays for it. BenchmarkFootprint/100k
// builds a 100 000-viewer steady state over the O(n)-memory hashed latency
// substrate, reports bytes/viewer and the GC pauses the build incurred, and
// then measures steady-state churn (join+depart) at that scale. The 1M
// variant rides behind the `heavy` build tag (bench_footprint_heavy_test.go)
// — it is the million-viewer claim, not a default-suite citizen.
package telecast_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"telecast"
)

type footprintSize struct {
	name  string
	fleet int
}

// footprintSizes is extended by the heavy-tagged file.
var footprintSizes = []footprintSize{{"100k", 100_000}}

// footprintFixture caches one built fleet across go test's benchmark
// reruns: the harness re-invokes the benchmark function with growing b.N,
// and rebuilding a 100k-viewer steady state on every rerun would cost more
// than every measured iteration combined. The footprint metrics are
// measured once, at build time, under forced GCs.
type footprintFixture struct {
	ctrl *telecast.Controller
	view telecast.View
	next int

	bytesPerViewer float64
	gcPauseMs      float64
	heapMB         float64
}

var footprintFixtures = map[int]*footprintFixture{}

func newFootprintFixture(b *testing.B, fleet int) *footprintFixture {
	b.Helper()
	producers, err := telecast.NewSession(
		telecast.NewRingSite("A", 8, 2.0, 10),
		telecast.NewRingSite("B", 8, 2.0, 10),
	)
	if err != nil {
		b.Fatal(err)
	}
	lat, err := telecast.GenerateLatencyMatrix(
		telecast.DefaultLatencyConfig(fleet+1024, 42))
	if err != nil {
		b.Fatal(err)
	}
	ctrl, err := telecast.NewController(producers, lat,
		telecast.WithCDN(unboundedCDN())) // unbounded: measure per-viewer state, not admission policy
	if err != nil {
		b.Fatal(err)
	}
	fx := &footprintFixture{ctrl: ctrl, view: telecast.NewUniformView(producers, 0)}

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	ctx := context.Background()
	const chunk = 4096
	reqs := make([]telecast.JoinRequest, 0, chunk)
	for base := 0; base < fleet; base += chunk {
		reqs = reqs[:0]
		for i := base; i < base+chunk && i < fleet; i++ {
			reqs = append(reqs, telecast.JoinRequest{
				ID:           telecast.ViewerID(fmt.Sprintf("w%08d", i)),
				InboundMbps:  12,
				OutboundMbps: float64(i % 13),
				View:         fx.view,
			})
		}
		for _, out := range fx.ctrl.JoinBatch(ctx, reqs) {
			if out.Err != nil {
				b.Fatal(out.Err)
			}
		}
	}

	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	fx.bytesPerViewer = float64(after.HeapAlloc-before.HeapAlloc) / float64(fleet)
	fx.gcPauseMs = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	fx.heapMB = float64(after.HeapAlloc) / (1 << 20)
	return fx
}

func benchmarkFootprint(b *testing.B, fleet int) {
	fx := footprintFixtures[fleet]
	if fx == nil {
		fx = newFootprintFixture(b, fleet)
		footprintFixtures[fleet] = fx
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The live window slides: [next, next+fleet) are joined, so the
		// oldest viewer departs as a fresh one joins.
		join := telecast.ViewerID(fmt.Sprintf("w%08d", fleet+fx.next))
		leave := telecast.ViewerID(fmt.Sprintf("w%08d", fx.next))
		fx.next++
		if _, err := fx.ctrl.Join(ctx, join, 12, float64(fx.next%13), fx.view); err != nil {
			b.Fatal(err)
		}
		if err := fx.ctrl.Leave(ctx, leave); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(fx.bytesPerViewer, "bytes/viewer")
	b.ReportMetric(fx.gcPauseMs, "gcPauseMs")
	b.ReportMetric(fx.heapMB, "heapMB")
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "joins/s")
}

func BenchmarkFootprint(b *testing.B) {
	for _, size := range footprintSizes {
		size := size
		b.Run(size.name, func(b *testing.B) { benchmarkFootprint(b, size.fleet) })
	}
}
