package session

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"

	"telecast/internal/cdn"
	"telecast/internal/model"
	"telecast/internal/trace"
)

// liveHeap returns the heap bytes still reachable after a forced collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestRetainedMemoryBoundedByLiveViewers churns a fixed audience through
// join/leave cycles with some view changes and requires the controller's
// retained heap to stay flat: what a session holds must follow its live
// viewers, not the number of operations it has served. A per-op log of
// 8-byte samples, or a free list that grows by one entry per departure,
// retains 8 B/op; the bound is a small fraction of that.
func TestRetainedMemoryBoundedByLiveViewers(t *testing.T) {
	const audience = 128
	c := testController(t, audience+64, 6000)
	views := []model.View{
		model.NewUniformView(c.cfg.Producers, 0),
		model.NewUniformView(c.cfg.Producers, math.Pi/2),
	}
	cycle := func() int {
		ops := 0
		for i := 0; i < audience; i++ {
			joinTolerant(t, c, vid(i), 12, float64(i%13), views[0])
			ops++
		}
		for i := 0; i < audience; i += 8 {
			if _, err := c.ChangeView(testCtx, vid(i), views[1]); err != nil && !errors.Is(err, ErrRejected) {
				t.Fatalf("view change %s: %v", vid(i), err)
			}
			ops++
		}
		for i := 0; i < audience; i++ {
			if err := c.Leave(testCtx, vid(i)); err != nil {
				t.Fatalf("leave %s: %v", vid(i), err)
			}
			ops++
		}
		return ops
	}
	// Warm-up: maps, slabs and intern tables reach their steady size. It
	// takes two cycles, because the overlay hands an emptied group's slab
	// store to the next group that forms: the first cycle's small view-1
	// store is grown to audience size on the second.
	cycle()
	cycle()
	before := liveHeap()
	ops := 0
	for ops < 100_000 {
		ops += cycle()
	}
	after := liveHeap()
	grown := int64(after) - int64(before)
	perOp := float64(grown) / float64(ops)
	t.Logf("%d ops: live heap %d → %d B (%+.3f B/op)", ops, before, after, perOp)
	if perOp > 1 {
		t.Fatalf("retained heap grew %.3f B/op over %d ops (limit 1 B/op)", perOp, ops)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestNewControllerAllocatesByUse pins the construction footprint of
// serve's shape — two 8-camera ring sites, a 6016-node latency matrix over 8
// regions, the default event buffer, telemetry off. A controller allocates
// what a run uses, when the run uses it: event rings on the first Subscribe,
// viewer maps as the audience grows, telemetry histograms and the slow-op
// ring on the first Enable. Building 8 × 4096-event rings and 1024-entry
// viewer maps up front costs about 6 MB per controller; histograms for a
// collector that is never armed about 163 KB.
func TestNewControllerAllocatesByUse(t *testing.T) {
	producers, err := model.NewSession(
		model.NewRingSite("A", 8, 2.0, 10),
		model.NewRingSite("B", 8, 2.0, 10),
	)
	if err != nil {
		t.Fatal(err)
	}
	lat, err := trace.GenerateLatencyMatrix(trace.DefaultLatencyConfig(6016, 1))
	if err != nil {
		t.Fatal(err)
	}
	if lat.NumRegions() != 8 {
		t.Fatalf("latency matrix has %d regions, want serve's 8", lat.NumRegions())
	}
	const builds = 16
	const limit = 128 << 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < builds; i++ {
		if _, err := NewController(producers, lat); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perBuild := float64(after.TotalAlloc-before.TotalAlloc) / builds
	allocs := float64(after.Mallocs-before.Mallocs) / builds
	t.Logf("NewController: %.0f B in %.0f allocations per build (limit %d B)", perBuild, allocs, limit)
	if perBuild > limit {
		t.Fatalf("NewController allocates %.0f B per build, want <= %d B", perBuild, limit)
	}
}

// TestDeepAudienceHeapPerViewer pins the live heap a viewer costs at the
// deep benchmark's shape: one region on the hashed latency substrate, one
// view of two 8-camera ring sites, an unbounded CDN, every viewer admitted
// through Controller.Admit. What is measured is the heap still reachable
// after a forced collection, from before NewController to the loaded
// audience: the viewer records, the overlay's slab nodes and columns, the
// routes and allocator state. Each viewer holds 16 tree nodes, so a copy of
// a viewer fact per node, or a second registry of the audience, shows here.
// MemStats are process-wide, so the least of three fresh trials is the
// controller's own figure.
func TestDeepAudienceHeapPerViewer(t *testing.T) {
	const (
		viewers = 8000
		budget  = 1500 // B per viewer
	)
	producers, err := model.NewSession(
		model.NewRingSite("A", 8, 2.0, 10),
		model.NewRingSite("B", 8, 2.0, 10),
	)
	if err != nil {
		t.Fatal(err)
	}
	cfg := trace.DefaultLatencyConfig(viewers+16, 1)
	cfg.Regions = 1
	lat, err := trace.GenerateLatencyMatrix(cfg)
	if err != nil {
		t.Fatal(err)
	}
	unbounded := cdn.DefaultConfig()
	unbounded.OutboundCapacityMbps = 0
	view := model.NewUniformView(producers, 0)
	ids := make([]model.ViewerID, viewers)
	for i := range ids {
		ids[i] = model.ViewerID(fmt.Sprintf("v%07d", i))
	}
	least := uint64(math.MaxUint64)
	for range 3 {
		before := liveHeap()
		c, err := NewController(producers, lat, WithCutoffDF(0.5), WithCDN(unbounded))
		if err != nil {
			t.Fatal(err)
		}
		for i, id := range ids {
			req := JoinRequest{ID: id, InboundMbps: 12, OutboundMbps: float64(i % 13), View: view}
			if _, err := c.Admit(testCtx, req); err != nil {
				t.Fatalf("join %s: %v", id, err)
			}
		}
		after := liveHeap()
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
		runtime.KeepAlive(c)
		if after > before {
			least = min(least, after-before)
		}
	}
	perViewer := float64(least) / viewers
	t.Logf("live heap %.0f B per viewer over %d viewers (budget %d B)", perViewer, viewers, budget)
	if perViewer > budget {
		t.Fatalf("live heap %.0f B per viewer, want <= %d B", perViewer, budget)
	}
}
