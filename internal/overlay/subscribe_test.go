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
	if len(m.pendingQ) != 0 || m.pendingHead != 0 || len(m.pendingSet) != 0 {
		t.Fatalf("exhaustion left the worklist dirty: q=%d head=%d set=%d",
			len(m.pendingQ), m.pendingHead, len(m.pendingSet))
	}
	m.budgetOverride = 0
	mustJoin(t, m, viewerN(3, 12, 13), 0)
	if got := m.Snapshot().ResubscribeExhausted; got != 1 {
		t.Fatalf("a join under the default budget moved the counter to %d", got)
	}
}

// TestSetLayerShortCircuitKeepsExportState runs one deep-shaped cycle — 3000
// viewers joining one view with capacities i mod 13, then leaving in join
// order — through two managers, one with the delay refresh's shortcuts
// (SetLayer's unchanged-layer short-circuit, refreshNode's early stop, the
// cached edges) and one forced through the full walk every time (alwaysWalk:
// every subtree walked, every edge re-derived from prop), and requires
// byte-identical exported state at the peak, mid-drain and near the end.
func TestSetLayerShortCircuitKeepsExportState(t *testing.T) {
	if testing.Short() {
		t.Skip("3000-viewer cycle, twice")
	}
	const n = 3000
	short, s := newStateTestManager(t, 0)
	walk, _ := newStateTestManager(t, 0)
	forceWalks := func() {
		for _, g := range walk.groups {
			for _, tree := range g.Trees {
				tree.alwaysWalk = true
			}
		}
	}
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
		forceWalks() // trees appear with the first join
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
