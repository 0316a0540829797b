package overlay

import (
	"math"
	"testing"
	"testing/quick"

	"telecast/internal/model"
)

func allocSession(t *testing.T) *model.Session {
	t.Helper()
	s, err := model.NewSession(
		model.NewRingSite("A", 8, 2.0, 10),
		model.NewRingSite("B", 8, 2.0, 10),
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// paperRequest composes the evaluation view: 6 streams, 3 per site.
func paperRequest(t *testing.T, s *model.Session) model.ViewRequest {
	t.Helper()
	req := model.ComposeView(s, model.NewUniformView(s, 0), 0.5)
	if len(req.Streams) != 6 {
		t.Fatalf("paper request has %d streams, want 6", len(req.Streams))
	}
	return req
}

func TestAllocateInboundFullCapacity(t *testing.T) {
	s := allocSession(t)
	req := paperRequest(t, s)
	got := AllocateInbound(req, 12, nil) // 6 × 2 Mbps fits exactly
	if len(got) != 6 {
		t.Fatalf("accepted %d, want 6", len(got))
	}
}

func TestAllocateInboundPrefixCut(t *testing.T) {
	s := allocSession(t)
	req := paperRequest(t, s)
	got := AllocateInbound(req, 7, nil) // 3 × 2 = 6 ≤ 7 < 8
	if len(got) != 3 {
		t.Fatalf("accepted %d, want 3", len(got))
	}
	// Must be the priority prefix.
	for i := range got {
		if got[i].Stream.ID != req.Streams[i].Stream.ID {
			t.Fatalf("accepted[%d] = %v, want %v", i, got[i].Stream.ID, req.Streams[i].Stream.ID)
		}
	}
}

func TestAllocateInboundSupplyBreaks(t *testing.T) {
	s := allocSession(t)
	req := paperRequest(t, s)
	calls := 0
	supply := func(id model.StreamID, bw float64) bool {
		calls++
		return calls <= 2 // only the first two streams have supply
	}
	got := AllocateInbound(req, 100, supply)
	if len(got) != 2 {
		t.Fatalf("accepted %d, want 2", len(got))
	}
}

func TestAllocateInboundZeroCapacity(t *testing.T) {
	s := allocSession(t)
	req := paperRequest(t, s)
	if got := AllocateInbound(req, 0, nil); len(got) != 0 {
		t.Fatalf("accepted %d with zero inbound", len(got))
	}
}

func TestCoversAllSites(t *testing.T) {
	s := allocSession(t)
	req := paperRequest(t, s)
	sites := newGroup(req).Sites
	if len(sites) != len(req.SitesCovered()) {
		t.Fatalf("group derives %d sites, request covers %d", len(sites), len(req.SitesCovered()))
	}
	if !CoversAllSites(sites, req.Streams) {
		t.Error("full acceptance should cover")
	}
	if CoversAllSites(sites, nil) {
		t.Error("empty acceptance should not cover")
	}
	// The global priority order of a symmetric view interleaves sites, so
	// a 2-stream prefix covers both sites here; find the exact minimal
	// covering prefix and check the boundary.
	for k := 0; k <= len(req.Streams); k++ {
		prefix := req.Streams[:k]
		want := len(req.SitesCovered()) == coveredBy(prefix)
		if got := CoversAllSites(sites, prefix); got != want {
			t.Errorf("prefix %d: covers = %v, want %v", k, got, want)
		}
	}
}

func coveredBy(prefix []model.RankedStream) int {
	sites := map[model.SiteID]bool{}
	for _, rs := range prefix {
		sites[rs.Stream.ID.Site] = true
	}
	return len(sites)
}

func TestAllocateOutboundRoundRobin(t *testing.T) {
	s := allocSession(t)
	req := paperRequest(t, s)
	// 7 Mbps across 6 × 2 Mbps streams: one full round for the top 3.
	out := AllocateOutbound(req.Streams, 7)
	if out.UsedMbps != 6 {
		t.Fatalf("used %v, want 6", out.UsedMbps)
	}
	if len(out.Shares) != len(req.Streams) {
		t.Fatalf("%d shares for %d streams", len(out.Shares), len(req.Streams))
	}
	for i := range req.Streams {
		deg := out.Shares[i].Deg
		want := 0
		if i < 3 {
			want = 1
		}
		if deg != want {
			t.Errorf("stream %d degree = %d, want %d", i, deg, want)
		}
	}
}

func TestAllocateOutboundWrapsAround(t *testing.T) {
	s := allocSession(t)
	req := paperRequest(t, s)
	// 14 Mbps: first round gives 12 (all six), second round gives the top
	// stream one more unit (14 total).
	out := AllocateOutbound(req.Streams, 14)
	if out.UsedMbps != 14 {
		t.Fatalf("used %v, want 14", out.UsedMbps)
	}
	if out.Shares[0].Deg != 2 {
		t.Errorf("top degree = %d, want 2", out.Shares[0].Deg)
	}
}

func TestAllocateOutboundEmptyAndZero(t *testing.T) {
	out := AllocateOutbound(nil, 100)
	if out.UsedMbps != 0 || len(out.Shares) != 0 {
		t.Errorf("empty alloc = %+v", out)
	}
	s := allocSession(t)
	req := paperRequest(t, s)
	out = AllocateOutbound(req.Streams, 0)
	if out.UsedMbps != 0 {
		t.Errorf("zero-capacity alloc used %v", out.UsedMbps)
	}
}

// Property: with uniform bitrates the round-robin invariant holds — the
// out-degree is non-increasing in priority order and degrees differ by at
// most one — and the budget is never exceeded.
func TestAllocateOutboundProperty(t *testing.T) {
	s := allocSession(t)
	req := paperRequest(t, s)
	f := func(capRaw uint8) bool {
		capMbps := float64(capRaw) / 4.0 // 0 .. 63.75 Mbps
		out := AllocateOutbound(req.Streams, capMbps)
		if out.UsedMbps > capMbps+1e-6 {
			return false
		}
		prev := math.MaxInt32
		minDeg, maxDeg := math.MaxInt32, 0
		for i := range req.Streams {
			d := out.Shares[i].Deg
			if d > prev {
				return false // priority invariant violated
			}
			prev = d
			if d < minDeg {
				minDeg = d
			}
			if d > maxDeg {
				maxDeg = d
			}
		}
		return maxDeg-minDeg <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Heterogeneous bitrates: allocation never exceeds the budget and every
// stream's allocation is a whole multiple of its bitrate.
func TestAllocateOutboundHeterogeneous(t *testing.T) {
	streams := []model.RankedStream{
		{Stream: model.Stream{ID: model.StreamID{Site: "A", Index: 1}, BitrateMbps: 5}},
		{Stream: model.Stream{ID: model.StreamID{Site: "A", Index: 2}, BitrateMbps: 0.4}},
		{Stream: model.Stream{ID: model.StreamID{Site: "B", Index: 1}, BitrateMbps: 2}},
	}
	out := AllocateOutbound(streams, 6)
	if out.UsedMbps > 6+1e-9 {
		t.Fatalf("used %v over budget", out.UsedMbps)
	}
	for i, rs := range streams {
		got := out.Shares[i].Mbps
		units := got / rs.Stream.BitrateMbps
		if math.Abs(units-math.Round(units)) > 1e-6 {
			t.Errorf("stream %v allocated %v, not a multiple of %v",
				rs.Stream.ID, got, rs.Stream.BitrateMbps)
		}
		if out.Shares[i].Deg != int(math.Round(units)) {
			t.Errorf("degree mismatch for %v", rs.Stream.ID)
		}
	}
	// The 5 Mbps stream fits once (5), then 0.4 fits twice (5.8), 2 never.
	if out.Shares[0].Deg != 1 {
		t.Errorf("S1 degree = %d", out.Shares[0].Deg)
	}
}
