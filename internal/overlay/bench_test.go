package overlay

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"telecast/internal/cdn"
	"telecast/internal/model"
)

// BenchmarkDeepCycle runs deep-shaped ramp-and-drain cycles on a bare
// Manager, the overlay's share of the deep.local-single benchmark without
// the session layer above it. It uses the same conventions: viewer i is
// "v%07d", with 12 Mbps inbound and i mod 13 Mbps outbound. Every viewer
// requests one view, so one group's six trees hold the whole audience. One
// op is one cycle: deepCycleViewers joins in a seeded random order, then
// their leaves in join order, back to an empty manager whose pooled stores
// the next cycle reuses. ns/viewer-op spreads the cycle's time over its
// 2·deepCycleViewers operations.
func BenchmarkDeepCycle(b *testing.B) {
	const deepCycleViewers = 3000
	s, err := model.NewSession(
		model.NewRingSite("A", 8, 2.0, 10),
		model.NewRingSite("B", 8, 2.0, 10),
	)
	if err != nil {
		b.Fatal(err)
	}
	dist := cdn.New(cdn.Config{Delta: 60 * time.Second}) // unbounded egress
	m, err := NewManager(s, dist, purePropFunc(), testParams(b))
	if err != nil {
		b.Fatal(err)
	}
	view := model.NewUniformView(s, 0)
	infos := make([]ViewerInfo, deepCycleViewers)
	for i := range infos {
		infos[i] = ViewerInfo{
			ID:           model.ViewerID(fmt.Sprintf("v%07d", i)),
			InboundMbps:  12,
			OutboundMbps: float64(i % 13),
		}
	}
	order := rand.New(rand.NewSource(1)).Perm(deepCycleViewers)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, v := range order {
			if _, err := m.Join(infos[v], view); err != nil {
				b.Fatal(err)
			}
		}
		for _, v := range order {
			if err := m.Leave(infos[v].ID); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(2*deepCycleViewers*b.N), "ns/viewer-op")
	if err := m.Validate(); err != nil {
		b.Fatal(err)
	}
	if n := len(m.viewers); n != 0 {
		b.Fatalf("%d viewer records left after the drain", n)
	}
}
