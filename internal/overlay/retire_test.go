package overlay

import (
	"bytes"
	"math"
	"testing"

	"telecast/internal/model"
)

// TestRejectedRecordKeepsLiveGroup pins the Δ-accounting leak's root cause:
// a rejected viewer's record keeps the group it was refused in, and once
// that group has emptied and a new group holds the same view key, the
// rejected viewer's departure must not unregister the live group. Both exits
// of a rejected record are covered, Leave and ChangeView.
func TestRejectedRecordKeepsLiveGroup(t *testing.T) {
	exits := map[string]func(m *Manager, id model.ViewerID) error{
		"leave": func(m *Manager, id model.ViewerID) error { return m.Leave(id) },
		"change-view": func(m *Manager, id model.ViewerID) error {
			_, err := m.ChangeView(id, model.NewUniformView(m.session, math.Pi))
			return err
		},
	}
	for name, exit := range exits {
		t.Run(name, func(t *testing.T) {
			m := newTestManager(t, 6000)
			r := viewerN(0, 0.5, 0) // too little inbound to cover any site
			if res := mustJoin(t, m, r, 0); res.Admitted {
				t.Fatal("fixture viewer was admitted")
			}
			a := viewerN(1, 12, 8)
			mustJoin(t, m, a, 0)
			if err := m.Leave(a.ID); err != nil {
				t.Fatal(err)
			}
			b := mustJoin(t, m, viewerN(2, 12, 8), 0)
			if !b.Admitted {
				t.Fatal("viewer B was rejected")
			}
			if err := exit(m, r.ID); err != nil {
				t.Fatal(err)
			}

			g := b.Viewer.Group
			if m.groups[g.Key] != g {
				t.Fatal("the rejected record's exit unregistered B's live group")
			}
			exported := 0
			for _, gs := range m.ExportState().Groups {
				for _, ts := range gs.Trees {
					for _, ns := range ts.Nodes {
						if ns.Viewer == b.Viewer.Info.ID {
							exported++
						}
					}
				}
			}
			if exported != len(b.Viewer.Nodes) || exported == 0 {
				t.Fatalf("ExportState holds %d of B's %d nodes", exported, len(b.Viewer.Nodes))
			}
			c := mustJoin(t, m, viewerN(3, 12, 8), 0)
			if c.Viewer.Group != g {
				t.Fatal("a joiner of B's view opened a second group for it")
			}
			if err := m.Validate(); err != nil {
				t.Fatal(err)
			}
			usage := m.CDN().Snapshot()
			for id, want := range m.CDNImplied() {
				if got := usage.PerStreamMbps[id]; math.Abs(got-want) > 1e-6 {
					t.Fatalf("stream %s: allocated %v Mbps, trees imply %v", id, got, want)
				}
			}
			for id, got := range usage.PerStreamMbps {
				if want := m.CDNImplied()[id]; math.Abs(got-want) > 1e-6 {
					t.Fatalf("stream %s: allocated %v Mbps, trees imply %v", id, got, want)
				}
			}
		})
	}
}

// TestRefilledGroupMatchesFresh ramps one view up, drains it to zero and
// ramps it again, and requires the second ramp to export byte-identical
// state to the same ramp on a fresh manager over the same propagation
// model: a group that forms where an emptied one stood starts exactly as a
// first group would, on the node stores the emptied group left behind.
func TestRefilledGroupMatchesFresh(t *testing.T) {
	const n = 600
	refilled, s := newStateTestManager(t, 0)
	fresh, _ := newStateTestManager(t, 0)
	view := model.NewUniformView(s, 0)
	ramp := func(m *Manager, from int) {
		t.Helper()
		for i := from; i < from+n; i++ {
			if _, err := m.Join(viewerN(i, 12, float64(i%13)), view); err != nil {
				t.Fatal(err)
			}
		}
	}
	ramp(refilled, 0)
	stores := make(map[*nodeStore]bool)
	for _, g := range refilled.groups {
		for _, tree := range g.Trees {
			if tree != nil {
				stores[tree.store] = true
			}
		}
	}
	for i := 0; i < n; i++ {
		if err := refilled.Leave(viewerN(i, 0, 0).ID); err != nil {
			t.Fatal(err)
		}
	}
	if len(refilled.groups) != 0 {
		t.Fatalf("drain left %d groups", len(refilled.groups))
	}
	if len(refilled.spare) != len(stores) {
		t.Fatalf("retiring the group pooled %d of its %d stores", len(refilled.spare), len(stores))
	}
	ramp(refilled, n)
	ramp(fresh, n)
	for _, g := range refilled.groups {
		for _, tree := range g.Trees {
			if tree != nil && !stores[tree.store] {
				t.Fatalf("refilled tree %s grew a new store instead of taking a spare", tree.Stream.ID)
			}
		}
	}
	for _, m := range []*Manager{refilled, fresh} {
		if err := m.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	// The cumulative counters differ by the first ramp; compare the rest.
	a, b := refilled.ExportState(), fresh.ExportState()
	a.StreamsRequested, a.StreamsAccepted, a.ViewersAdmitted = 0, 0, 0
	b.StreamsRequested, b.StreamsAccepted, b.ViewersAdmitted = 0, 0, 0
	ea, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	eb, err := b.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ea, eb) {
		t.Fatal("refilled group exports differently from a fresh one")
	}
	if len(a.Groups) != 1 || len(a.Groups[0].Trees) == 0 {
		t.Fatalf("fixture formed %d groups", len(a.Groups))
	}
}

// TestCascadeDropInReformedGroupUpdatesRecord drives the leak's second
// consequence: a cascade drop in a group whose view key a rejected record
// once shared. B roots every tree of the view at a CDN bound B alone fills,
// with D1 and D2 as its children; the rejected record leaves; then B
// leaves, one victim takes B's released CDN slot and the other has nowhere
// to go and is cascade-dropped. The dropped viewer's record must lose those
// subscriptions with its nodes, so its own departure later finds no
// recycled handle.
func TestCascadeDropInReformedGroupUpdatesRecord(t *testing.T) {
	m := newTestManager(t, 12) // six 2 Mbps streams: one CDN root each
	r := viewerN(0, 0.5, 0)
	if res := mustJoin(t, m, r, 0); res.Admitted {
		t.Fatal("fixture viewer was admitted")
	}
	a := viewerN(1, 12, 0)
	mustJoin(t, m, a, 0)
	if err := m.Leave(a.ID); err != nil {
		t.Fatal(err)
	}
	b := mustJoin(t, m, viewerN(2, 12, 24), 0) // out-degree 2 per stream
	d1 := mustJoin(t, m, viewerN(3, 12, 0), 0)
	d2 := mustJoin(t, m, viewerN(4, 12, 0), 0)
	for _, res := range []*JoinResult{b, d1, d2} {
		if !res.Admitted {
			t.Fatalf("%s was rejected", res.Viewer.Info.ID)
		}
	}
	if err := m.Leave(r.ID); err != nil {
		t.Fatal(err)
	}
	if err := m.Leave(b.Viewer.Info.ID); err != nil {
		t.Fatal(err)
	}
	dropped := 0
	for _, res := range []*JoinResult{d1, d2} {
		v := res.Viewer
		dropped += len(res.Accepted) - len(v.Nodes)
		for i, n := range v.Nodes {
			if !v.Group.Trees[n.stream].binds(v, n) {
				t.Fatalf("%s keeps a handle in %s its tree does not bind", v.Info.ID, v.AcceptedStreams()[i])
			}
		}
	}
	if dropped == 0 {
		t.Fatal("fixture cascade-dropped nothing")
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, res := range []*JoinResult{d1, d2} {
		if err := m.Leave(res.Viewer.Info.ID); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}
