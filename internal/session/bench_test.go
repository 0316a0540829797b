package session

import (
	"context"
	"fmt"
	"testing"

	"telecast/internal/model"
	"telecast/internal/trace"
)

// BenchmarkBatchPrepare isolates the GSC half of batch admission — route
// claim, latency-node placement, registry insert — with no shard admission,
// so the striped prepare path is measured directly rather than inferred from
// end-to-end join numbers. Each iteration prepares one 2000-request batch
// and the unwind runs off the clock.
func BenchmarkBatchPrepare(b *testing.B) {
	for _, regions := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("regions=%d", regions), func(b *testing.B) {
			benchBatchPrepare(b, regions)
		})
	}
}

func benchBatchPrepare(b *testing.B, regions int) {
	const batch = 2000
	producers, err := model.NewSession(
		model.NewRingSite("A", 8, 2.0, 10),
		model.NewRingSite("B", 8, 2.0, 10),
	)
	if err != nil {
		b.Fatal(err)
	}
	latCfg := trace.DefaultLatencyConfig(batch+regions+1, 42)
	latCfg.Regions = regions
	lat, err := trace.GenerateLatencyMatrix(latCfg)
	if err != nil {
		b.Fatal(err)
	}
	c, err := NewController(producers, lat)
	if err != nil {
		b.Fatal(err)
	}
	view := model.NewUniformView(producers, 0)
	reqs := make([]JoinRequest, batch)
	for i := range reqs {
		reqs[i] = JoinRequest{ID: vid(i), InboundMbps: 20, OutboundMbps: 4, View: view}
	}
	out := make([]BatchOutcome, batch)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prepared := c.prepareBatch(ctx, reqs, out)
		b.StopTimer()
		for _, i := range prepared.order {
			c.abandon(prepared.joins[i])
		}
		if len(prepared.order) != batch {
			b.Fatalf("prepared %d of %d requests", len(prepared.order), batch)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds(), "prepares/s")
}
