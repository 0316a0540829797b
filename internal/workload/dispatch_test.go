package workload

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"telecast/internal/model"
	"telecast/internal/session"
	"telecast/internal/telemetry"
)

// TestLocalPlaneSingleOpSkipsBatch pins how the local plane picks its
// controller entry point: a run of one request goes to the single-op method,
// with no batch prepare or admit fan-out, while a run of 64 still fans out.
func TestLocalPlaneSingleOpSkipsBatch(t *testing.T) {
	for _, n := range []int{1, 64} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			events := make([]Event, n)
			reqs := make([]Request, n)
			for i := range reqs {
				events[i] = Event{Kind: EventJoin, Viewer: vidN(i)}
				reqs[i] = Request{Kind: EventJoin, ID: vidN(i), InboundMbps: 12, OutboundMbps: 4}
			}
			ctrl, producers := newScenarioController(t, events, 1, session.WithTelemetry(true))
			outs, err := NewLocalPlane(ctrl, producers, 0).Exec(context.Background(), reqs)
			if err != nil {
				t.Fatal(err)
			}
			for _, o := range outs {
				if o.Err != nil || !o.Admitted || o.Region < 0 {
					t.Fatalf("join %s: %+v", o.ID, o)
				}
			}
			snap := ctrl.Telemetry().Snapshot()
			count := func(op telemetry.Op) uint64 { return snap.Ops[op].OutcomeTotal() }
			if got := count(telemetry.OpJoin); got != uint64(n) {
				t.Errorf("recorded %d OpJoin, want %d", got, n)
			}
			prepare, admit := count(telemetry.OpBatchPrepare), count(telemetry.OpBatchAdmit)
			if n == 1 && prepare+admit != 0 {
				t.Errorf("a single join took the batch path: %d prepare, %d admit", prepare, admit)
			}
			if n > 1 && (prepare == 0 || admit == 0) {
				t.Errorf("a %d-join run skipped the batch path: %d prepare, %d admit", n, prepare, admit)
			}
		})
	}
}

// TestLocalPlaneBuildsEachViewOnce pins the per-angle view cache: requests
// at one angle share one orientation map, a different angle (including -0
// against 0, which differ in bits) gets its own, and a cache at its bound
// resets instead of growing.
func TestLocalPlaneBuildsEachViewOnce(t *testing.T) {
	ctrl, producers := newScenarioController(t, []Event{{Kind: EventJoin, Viewer: vidN(0)}}, 1)
	p := NewLocalPlane(ctrl, producers, 0).(*localPlane)
	same := func(a, b model.View) bool {
		return reflect.ValueOf(a.Orientations).UnsafePointer() == reflect.ValueOf(b.Orientations).UnsafePointer()
	}
	a, b := p.view(0.5), p.joinRequest(Request{Kind: EventJoin, ViewAngle: 0.5}).View
	if !same(a, b) {
		t.Error("two requests at one angle built two views")
	}
	if want := model.NewUniformView(producers, 0.5); !a.Equal(want) {
		t.Errorf("cached view %v, want %v", a.Orientations, want.Orientations)
	}
	if same(p.view(0), p.view(math.Copysign(0, -1))) {
		t.Error("angles 0 and -0 share a view")
	}
	for i := len(p.views); i < viewCacheMax; i++ {
		p.view(float64(i) + 1000)
	}
	if len(p.views) != viewCacheMax {
		t.Fatalf("cache holds %d views, want %d", len(p.views), viewCacheMax)
	}
	p.view(-1)
	if len(p.views) != 1 {
		t.Errorf("cache at its bound holds %d views after a new angle, want 1", len(p.views))
	}
	// Concurrent view changes share the cache: readers and builders race
	// across a reset without corrupting it.
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range viewCacheMax {
				if v := p.view(float64(i%7 + g)); len(v.Orientations) != producers.NumSites() {
					t.Errorf("view at %d has %d sites", i%7+g, len(v.Orientations))
					return
				}
				p.view(float64(i) + 1e6)
			}
		}()
	}
	wg.Wait()
}
