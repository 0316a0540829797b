package workload

import (
	"context"
	"fmt"
	"testing"

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
