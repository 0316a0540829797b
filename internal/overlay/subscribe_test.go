package overlay

import (
	"bytes"
	"testing"

	"telecast/internal/model"
)

// TestResubscribeExhaustedCounted forces the subscription budget to run dry
// and checks the miss is counted, not silent: with a budget of one pass, a
// join that displaces a node queues the joiner and the displaced viewer, so
// the second is still pending when the budget ends.
func TestResubscribeExhaustedCounted(t *testing.T) {
	m := newTestManager(t, 6000)
	m.budgetOverride = 1
	mustJoin(t, m, viewerN(1, 12, 4), 0)
	if got := m.Snapshot().ResubscribeExhausted; got != 0 {
		t.Fatalf("a lone joiner needs one pass, yet %d exhaustions were counted", got)
	}
	mustJoin(t, m, viewerN(2, 12, 12), 0) // stronger: displaces viewer 1
	if got := m.Snapshot().ResubscribeExhausted; got != 1 {
		t.Fatalf("Snapshot counts %d exhaustions, want 1", got)
	}
	if got := m.QuickSnapshot().ResubscribeExhausted; got != 1 {
		t.Fatalf("QuickSnapshot counts %d exhaustions, want 1", got)
	}
	if len(m.pendingQ) != 0 || m.pendingHead != 0 {
		t.Fatalf("exhaustion left the worklist dirty: q=%d head=%d", len(m.pendingQ), m.pendingHead)
	}
	for id, v := range m.viewers {
		if v.pending {
			t.Fatalf("exhaustion left %s flagged pending", id)
		}
	}
	m.budgetOverride = 0
	mustJoin(t, m, viewerN(3, 12, 13), 0)
	if got := m.Snapshot().ResubscribeExhausted; got != 1 {
		t.Fatalf("a join under the default budget moved the counter to %d", got)
	}
}

// TestWorklistRetainsNoRecord requires processPending to leave no record
// behind, whether it drained the worklist or gave up on an exhausted budget:
// every slot of the queue's backing array is nil and no record is flagged
// pending, so the array never keeps a departed viewer's record alive.
func TestWorklistRetainsNoRecord(t *testing.T) {
	for _, budget := range []int{0, 1} {
		m := newTestManager(t, 6000)
		m.budgetOverride = budget
		for i := 0; i < 40; i++ {
			mustJoin(t, m, viewerN(i, 12, float64(i%13)), 0)
		}
		for i := 0; i < 40; i += 3 {
			if err := m.Leave(viewerN(i, 0, 0).ID); err != nil {
				t.Fatal(err)
			}
		}
		exhausted := m.Snapshot().ResubscribeExhausted
		if (budget == 1) != (exhausted > 0) {
			t.Fatalf("budget %d: %d exhaustions", budget, exhausted)
		}
		if cap(m.pendingQ) == 0 {
			t.Fatalf("budget %d: the worklist was never used", budget)
		}
		for i, v := range m.pendingQ[:cap(m.pendingQ)] {
			if v != nil {
				t.Fatalf("budget %d: queue slot %d still holds %s", budget, i, v.Info.ID)
			}
		}
		for id, v := range m.viewers {
			if v.pending {
				t.Fatalf("budget %d: %s still flagged pending", budget, id)
			}
		}
	}
}

// TestSetLayerShortCircuitKeepsExportState runs one deep-shaped cycle — 3000
// viewers joining one view with capacities i mod 13, then leaving in join
// order — through two managers, one with the delay refresh's shortcuts
// (setLayer's unchanged-layer short-circuit and the subscription pass's skip
// of an unchanged layer, refreshNode's early stop, the cached edges) and one
// forced through the full walk every time (alwaysWalk: every layer handed
// to setLayer, every subtree walked, every edge re-derived from prop), and
// requires byte-identical exported state at the peak, mid-drain and near
// the end.
func TestSetLayerShortCircuitKeepsExportState(t *testing.T) {
	if testing.Short() {
		t.Skip("3000-viewer cycle, twice")
	}
	const n = 3000
	short, s := newStateTestManager(t, 0)
	walk, _ := newStateTestManager(t, 0)
	walk.alwaysWalk = true
	compare := func(when string) {
		t.Helper()
		a, err := short.ExportState().Encode()
		if err != nil {
			t.Fatal(err)
		}
		b, err := walk.ExportState().Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("%s: exported state differs between short-circuit and full walk", when)
		}
		if err := short.Validate(); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
	}
	view := model.NewUniformView(s, 0)
	for i := 0; i < n; i++ {
		info := viewerN(i, 12, float64(i%13))
		for _, m := range []*Manager{short, walk} {
			if _, err := m.Join(info, view); err != nil {
				t.Fatalf("join %s: %v", info.ID, err)
			}
		}
	}
	compare("peak")
	for i := 0; i < n-1; i++ {
		for _, m := range []*Manager{short, walk} {
			if err := m.Leave(viewerN(i, 0, 0).ID); err != nil {
				t.Fatalf("leave %d: %v", i, err)
			}
		}
		if i == n/2 {
			compare("mid-drain")
		}
	}
	compare("one viewer left")
}
