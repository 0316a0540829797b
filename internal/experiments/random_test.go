package experiments

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"telecast/internal/cdn"
	"telecast/internal/model"
)

func testRandomRouter(t *testing.T, cdnCap float64) (*randomRouter, *model.Session) {
	t.Helper()
	s, err := model.NewSession(
		model.NewRingSite("A", 8, 2.0, 10),
		model.NewRingSite("B", 8, 2.0, 10),
	)
	if err != nil {
		t.Fatal(err)
	}
	dist := cdn.New(cdn.Config{OutboundCapacityMbps: cdnCap, Delta: 60 * time.Second})
	r, err := newRandomRouter(s, dist, rand.New(rand.NewSource(3)), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	return r, s
}

func TestNewRandomRouterValidation(t *testing.T) {
	if _, err := newRandomRouter(nil, nil, nil, 0); err == nil {
		t.Error("nil deps accepted")
	}
}

func TestRandomJoinServesFromCDNWhenNoPeers(t *testing.T) {
	r, s := testRandomRouter(t, 6000)
	res, err := r.join("v1", 12, 4, model.NewUniformView(s, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Admitted || len(res.Accepted) != 6 {
		t.Fatalf("res = %+v", res)
	}
	snap := r.snapshot()
	if snap.CDNUsage.OutTotalMbps != 12 {
		t.Errorf("cdn usage = %v", snap.CDNUsage.OutTotalMbps)
	}
}

func TestRandomJoinDuplicate(t *testing.T) {
	r, s := testRandomRouter(t, 6000)
	if _, err := r.join("v1", 12, 0, model.NewUniformView(s, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.join("v1", 12, 0, model.NewUniformView(s, 0)); err == nil {
		t.Error("duplicate join accepted")
	}
}

func TestRandomJoinUsesPeersWhenAvailable(t *testing.T) {
	r, s := testRandomRouter(t, 12) // CDN can seed exactly one full viewer
	first, err := r.join("v1", 12, 100, model.NewUniformView(s, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !first.Admitted || len(first.Accepted) != 6 {
		t.Fatalf("first = %+v", first)
	}
	second, err := r.join("v2", 12, 0, model.NewUniformView(s, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !second.Admitted || len(second.Accepted) != 6 {
		t.Fatalf("second should ride on v1's outbound: %+v", second)
	}
	if r.snapshot().CDNUsage.OutTotalMbps != 12 {
		t.Error("peer-served streams must not consume CDN")
	}
}

func TestRandomJoinRejectsWithoutSupply(t *testing.T) {
	r, s := testRandomRouter(t, 2) // one stream of CDN budget: cannot cover 2 sites
	res, err := r.join("v1", 12, 0, model.NewUniformView(s, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Admitted {
		t.Fatalf("admitted with 2 Mbps CDN: %+v", res)
	}
	if r.snapshot().Rejected != 1 {
		t.Error("rejection not counted")
	}
}

func TestRandomAcceptanceAccountingAndRatio(t *testing.T) {
	r, s := testRandomRouter(t, 6000)
	for i := 0; i < 10; i++ {
		if _, err := r.join(model.ViewerID(fmt.Sprintf("v%d", i)), 12, 6, model.NewUniformView(s, 0)); err != nil {
			t.Fatal(err)
		}
	}
	snap := r.snapshot()
	if snap.StreamsRequested != 60 {
		t.Fatalf("requested = %d", snap.StreamsRequested)
	}
	if ratio := snap.AcceptanceRatio(); ratio <= 0 || ratio > 1 {
		t.Fatalf("ratio = %v", ratio)
	}
	if snap.Viewers != 10 {
		t.Fatalf("viewers = %d", snap.Viewers)
	}
}

func TestRandomOutboundNeverOversubscribed(t *testing.T) {
	r, s := testRandomRouter(t, 12)
	// One seed with 4 Mbps outbound: at most 2 peer-served streams total.
	if _, err := r.join("seed", 12, 4, model.NewUniformView(s, 0)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := r.join(model.ViewerID(fmt.Sprintf("v%d", i)), 12, 0, model.NewUniformView(s, 0)); err != nil {
			t.Fatal(err)
		}
	}
	seed := r.viewers["seed"]
	if seed.outUsed > seed.OutboundMbps+1e-9 {
		t.Fatalf("seed outbound oversubscribed: %v > %v", seed.outUsed, seed.OutboundMbps)
	}
	for id, v := range r.viewers {
		if v.inUsed > v.InboundMbps+1e-9 {
			t.Fatalf("viewer %s inbound oversubscribed", id)
		}
	}
}

func TestRandomZeroRequestRatioIsOne(t *testing.T) {
	r, _ := testRandomRouter(t, 100)
	if got := r.snapshot().AcceptanceRatio(); got != 1 {
		t.Errorf("empty ratio = %v", got)
	}
}
