package overlay

import (
	"testing"

	"telecast/internal/model"
)

// A caller that mutates its View's orientation map in place must not be
// served the stale memoized composition (the memo snapshots the view).
func TestComposeMemoSurvivesInPlaceViewMutation(t *testing.T) {
	m := newTestManager(t, 6000)
	view := model.NewUniformView(m.session, 0)
	res := mustJoin(t, m, viewerN(0, 12, 8), 0)
	if !res.Admitted {
		t.Fatal("seed rejected")
	}
	before := m.composeView(view).Key()
	rotated := model.NewUniformView(m.session, 3)
	for site, dir := range rotated.Orientations {
		view.Orientations[site] = dir // in-place mutation, same map
	}
	after := m.composeView(view).Key()
	want := model.ComposeView(m.session, rotated, m.params.CutoffDF).Key()
	if after != want {
		t.Fatalf("memo served stale composition: got %s, want %s (before %s)", after, want, before)
	}
}

// The intern table composes from a private clone of the first caller's
// view, so a caller that mutates its map after the join cannot rewrite the
// interned request (which groups hold as their Request).
func TestInternedRequestDoesNotAliasCallerView(t *testing.T) {
	m := newTestManager(t, 6000)
	view := model.NewUniformView(m.session, 0)
	req := m.composeView(view)
	for site, dir := range model.NewUniformView(m.session, 3).Orientations {
		view.Orientations[site] = dir
	}
	if want := model.NewUniformView(m.session, 0); !req.View.Equal(want) {
		t.Fatal("the interned request's view follows the caller's map")
	}
	if again := m.composeView(model.NewUniformView(m.session, 0)); again.Key() != req.Key() {
		t.Fatalf("recomposed %s, want the interned %s", again.Key(), req.Key())
	}
}
