package session

import (
	"errors"
	"math"
	"runtime"
	"testing"

	"telecast/internal/model"
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
