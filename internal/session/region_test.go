package session

import (
	"errors"
	"testing"

	"telecast/internal/model"
	"telecast/internal/trace"
)

func TestAdmitHonorsRegionHint(t *testing.T) {
	c := testController(t, 256, 0)
	view := model.NewUniformView(c.cfg.Producers, 0)
	regions := c.cfg.Latency.NumRegions()
	// Pin a sweep of joins round-robin across every region and verify each
	// lands on the hinted LSC.
	for i := 0; i < 64; i++ {
		want := trace.Region(i % regions)
		out, err := c.Admit(testCtx, JoinRequest{
			ID:          vid(i),
			InboundMbps: 12, OutboundMbps: 4,
			View:   view,
			Region: InRegion(want),
		})
		if err != nil && !errors.Is(err, ErrRejected) {
			t.Fatalf("admit %d: %v", i, err)
		}
		if got := trace.Region(out.LSCRegion); got != want {
			t.Fatalf("viewer %d placed in region %d, hinted %d", i, got, want)
		}
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRegionHintFallsBackWhenRegionExhausted(t *testing.T) {
	// Tiny matrix: once the hot region's nodes are gone, hinted joins must
	// fall back to any free node instead of failing.
	c := testController(t, 24, 0)
	view := model.NewUniformView(c.cfg.Producers, 0)
	// Hint the region of the first viewer-allocatable node so the region is
	// guaranteed to hold at least one node in this tiny matrix.
	hot := c.cfg.Latency.RegionOf(1 + c.cfg.Latency.NumRegions())
	placed := 0
	for i := 0; i < 24-1-c.cfg.Latency.NumRegions(); i++ {
		out, err := c.Admit(testCtx, JoinRequest{
			ID:          vid(i),
			InboundMbps: 12, OutboundMbps: 4,
			View:   view,
			Region: InRegion(hot),
		})
		if err != nil && !errors.Is(err, ErrRejected) {
			t.Fatalf("admit %d: %v", i, err)
		}
		if trace.Region(out.LSCRegion) == hot {
			placed++
		}
	}
	if placed == 0 {
		t.Fatal("no viewer landed in the hinted region")
	}
	// The substrate itself must eventually exhaust, proving the fallback
	// handed out nodes from other regions rather than erroring early.
	_, err := c.Admit(testCtx, JoinRequest{ID: "overflow", InboundMbps: 12, OutboundMbps: 4, View: view, Region: InRegion(hot)})
	if !errors.Is(err, ErrMatrixExhausted) {
		t.Fatalf("expected matrix exhaustion, got %v", err)
	}
}

func TestRegionHintReusesReleasedNodes(t *testing.T) {
	c := testController(t, 128, 0)
	view := model.NewUniformView(c.cfg.Producers, 0)
	hot := trace.Region(2)
	// Join and depart a hinted viewer, then rejoin with the same hint: the
	// released node must be reusable in that region.
	for round := 0; round < 3; round++ {
		out, err := c.Admit(testCtx, JoinRequest{ID: "cycler", InboundMbps: 12, OutboundMbps: 4, View: view, Region: InRegion(hot)})
		if err != nil && !errors.Is(err, ErrRejected) {
			t.Fatalf("round %d: %v", round, err)
		}
		if trace.Region(out.LSCRegion) != hot {
			t.Fatalf("round %d placed in region %d, hinted %d", round, out.LSCRegion, hot)
		}
		if err := c.Leave(testCtx, "cycler"); err != nil {
			t.Fatalf("round %d leave: %v", round, err)
		}
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRegionHintZeroValueKeepsDefaultPlacement(t *testing.T) {
	// Two controllers over the same substrate: unhinted Admit and legacy
	// Join must place viewers identically.
	a := testController(t, 64, 0)
	b := testController(t, 64, 0)
	view := model.NewUniformView(a.cfg.Producers, 0)
	for i := 0; i < 16; i++ {
		oa, err := a.Admit(testCtx, JoinRequest{ID: vid(i), InboundMbps: 12, OutboundMbps: 4, View: view})
		if err != nil && !errors.Is(err, ErrRejected) {
			t.Fatal(err)
		}
		ob, err := b.Join(testCtx, vid(i), 12, 4, view)
		if err != nil && !errors.Is(err, ErrRejected) {
			t.Fatal(err)
		}
		if oa.LSCRegion != ob.LSCRegion {
			t.Fatalf("viewer %d: Admit region %d, Join region %d", i, oa.LSCRegion, ob.LSCRegion)
		}
	}
}

func TestRegionHintOutOfRangeFallsBack(t *testing.T) {
	// Wire requests carry their region hint unchecked. A hint that names no
	// region must fall back to the default placement like a hint to an
	// exhausted region, and a strict acquire on it must fail.
	c := testController(t, 64, 0)
	ref := testController(t, 64, 0)
	view := model.NewUniformView(c.cfg.Producers, 0)
	bad := []trace.Region{-1, trace.Region(c.cfg.Latency.NumRegions())}
	for i, r := range bad {
		out, err := c.Admit(testCtx, JoinRequest{ID: vid(i), InboundMbps: 12, OutboundMbps: 4, View: view, Region: InRegion(r)})
		if err != nil {
			t.Fatalf("join hinted at region %d: %v", r, err)
		}
		want, err := ref.Admit(testCtx, JoinRequest{ID: vid(i), InboundMbps: 12, OutboundMbps: 4, View: view})
		if err != nil {
			t.Fatal(err)
		}
		if out.LSCRegion != want.LSCRegion {
			t.Fatalf("join hinted at region %d placed in region %d, the default placement is region %d", r, out.LSCRegion, want.LSCRegion)
		}
	}
	for _, r := range bad {
		if idx, ok := c.nodes.acquireInStrict(r); ok {
			t.Fatalf("strict acquire in region %d handed out node %d", r, idx)
		}
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}
