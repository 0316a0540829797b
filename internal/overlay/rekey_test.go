package overlay

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"telecast/internal/cdn"
	"telecast/internal/layering"
	"telecast/internal/model"
)

// The level index's heap keys are settled, not re-keyed at every move: a
// delay refresh marks a filed node stale and Tree.settle sifts it once,
// before the next read of the index, before the next structural write to it,
// and at the end of every manager operation (tree.go). These tests hold the
// deferred re-keys to the immediate ones, which alwaysWalk restores.

// TestPendingRekeysMatchReferenceScanDeep reads and rewrites a deep-shaped
// tree's level index while re-keys are pending, the way a κ drain does. Out
// capacity takes only three values, so even the first level's buckets tie
// on (degree, capacity) and the delay key, the one a push moves, decides
// elections there. Each step makes a burst of layer push-downs through the
// deferring setLayer, then one of the delay adaptation's structural moves —
// a subtree re-rooted at the CDN, a node detached and its victims
// re-placed — or a fresh join. Every position a placement asks for, and the
// position of a joiner that out-ranks every node, is first resolved by
// findPositionScan and must be the one findPosition elects. A twin tree
// replays every mutation with alwaysWalk (every re-key at once) and must
// agree node for node — parent links, child order and delay state — and
// the validator, which requires every key settled, runs after every step.
func TestPendingRekeysMatchReferenceScanDeep(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 1500-node tree under the reference scan")
	}
	const (
		target = 1500
		steps  = 600
	)
	rng := rand.New(rand.NewSource(37))
	prop := func(a, b model.ViewerID) time.Duration {
		return time.Duration(10+10*((len(a)+int(a[len(a)-1])+3*int(b[len(b)-1]))%4)) * time.Millisecond
	}
	tree, twin := newTestTree(t, prop), newTestTree(t, prop)
	twin.alwaysWalk = true
	next, pendingOps := 0, 0
	var live, twinLive []*Node
	// strong out-ranks every node (out-degree 3, capacity 13), so its
	// election is the first level's weakest node: where the root pushes
	// below leave their stale keys.
	strong := testNode(tree, "probe", 3, 13)
	place := func(u, u2 *Node) {
		t.Helper()
		checkAgainstReference(t, tree, strong)
		checkAgainstReference(t, tree, u)
		if placed, _ := tree.place(u); !placed {
			tree.AttachToCDN(u)
		}
		if placed, _ := twin.place(u2); !placed {
			twin.AttachToCDN(u2)
		}
	}
	join := func() {
		t.Helper()
		deg := rng.Intn(3)
		u := testNode(tree, model.ViewerID(fmt.Sprintf("k%06d", next)), deg, float64(rng.Intn(3)))
		next++
		u2 := twin.NewNode(u.owner, deg)
		place(u, u2)
		live = append(live, u)
		twinLive = append(twinLive, u2)
	}
	for len(live) < target {
		join()
	}
	requireInvariants(t, tree, 0, "build")
	for step := 0; step < steps; step++ {
		// Each push moves a layer one up or down, as κ drains do, so it
		// moves the subtree's delays and leaves its keys stale. Half of
		// them land on a root, whose level is the first findPosition
		// searches, so stale keys sit where placements are decided.
		for k := rng.Intn(6); k >= 0; k-- {
			n, n2 := live[0], twinLive[0]
			if rng.Intn(2) == 0 {
				i := rng.Intn(len(tree.roots))
				n, n2 = tree.roots[i], twin.roots[i]
			} else {
				i := rng.Intn(len(live))
				n, n2 = live[i], twinLive[i]
			}
			layer := n.Layer - 1 + rng.Intn(3)
			got := viewersOf(tree.setLayer(n, layer))
			if want := viewersOf(twin.setLayer(n2, layer)); got != want {
				t.Fatalf("step %d: setLayer reports %q changed, the immediate re-key %q", step, got, want)
			}
		}
		if len(tree.store.staleQ) > 0 {
			pendingOps++
		}
		op := "join"
		switch r := rng.Intn(10); {
		case r < 3 || len(live) <= target:
			join()
		case r < 7:
			op = "detach+reattach"
			i := rng.Intn(len(live))
			n, n2 := live[i], twinLive[i]
			live[i], twinLive[i] = live[len(live)-1], twinLive[len(live)-1]
			live, twinLive = live[:len(live)-1], twinLive[:len(live)-1]
			victims, twinVictims := tree.Detach(n), twin.Detach(n2)
			for j, v := range victims {
				place(v, twinVictims[j])
			}
		default:
			op = "move-to-cdn"
			i := rng.Intn(len(live))
			tree.MoveToCDN(live[i])
			twin.MoveToCDN(twinLive[i])
		}
		requireInvariants(t, tree, step, op)
		if err := sameDelays(tree, twin); err != nil {
			t.Fatalf("step %d after %s: %v", step, op, err)
		}
	}
	if pendingOps < steps/2 {
		t.Fatalf("only %d of %d steps reached the index with re-keys pending", pendingOps, steps)
	}
}

// TestDeferredRekeysKeepManagerDecisions runs a deep-shaped churn through
// two managers, one settling its re-keys at the end of each operation and
// one re-keying every move at once (alwaysWalk), on a bounded CDN and a
// d_max tight enough that κ drains keep hitting the delay-layer adaptation:
// streams re-rooted at the CDN (MoveToCDN) and, once the CDN is full,
// dropped with their victims re-placed (dropStream → Reattach) while the
// drain's own layer push-downs are still unsettled. After every operation
// both managers must validate clean — every heap key settled, heap order
// holding under the nodes' current delays — and agree on the outcome; at
// checkpoints their exported states must be byte-identical and every tree's
// findPosition must agree with findPositionScan on a spread of joiners.
func TestDeferredRekeysKeepManagerDecisions(t *testing.T) {
	if testing.Short() {
		t.Skip("two 1200-op deep-tree runs")
	}
	const (
		build  = 400
		churn  = 800
		every  = 100
		cdnCap = 250
	)
	s, err := model.NewSession(
		model.NewRingSite("A", 2, 2.0, 10),
		model.NewRingSite("B", 2, 2.0, 10),
	)
	if err != nil {
		t.Fatal(err)
	}
	h, err := layering.NewHierarchy(60*time.Second, 300*time.Millisecond, 61200*time.Millisecond, 2)
	if err != nil {
		t.Fatal(err)
	}
	params := Params{Hierarchy: h, Proc: 100 * time.Millisecond, CutoffDF: -1, LogDrops: true}
	newManager := func(alwaysWalk bool) *Manager {
		m, err := NewManager(s, cdn.New(cdn.Config{OutboundCapacityMbps: cdnCap, Delta: 60 * time.Second}), purePropFunc(), params)
		if err != nil {
			t.Fatal(err)
		}
		m.alwaysWalk = alwaysWalk
		return m
	}
	deferred, immediate := newManager(false), newManager(true)
	both := []*Manager{deferred, immediate}
	view := model.NewUniformView(s, 0)
	rng := rand.New(rand.NewSource(41))
	drops := make(map[RejectReason]int)

	var known []model.ViewerID
	next := 0
	for op := 0; op < build+churn; op++ {
		kind, r := "join", rng.Intn(10)
		var id model.ViewerID
		switch {
		case op < build || r < 4:
			id = model.ViewerID(fmt.Sprintf("d%05d", next))
			next++
			known = append(known, id)
		case r < 8:
			kind = "leave"
			j := rng.Intn(len(known))
			id = known[j]
			known[j] = known[len(known)-1]
			known = known[:len(known)-1]
		default:
			kind = "view change"
			id = known[rng.Intn(len(known))]
		}
		out := float64(rng.Intn(9))
		var outcomes [2]string
		for i, m := range both {
			var res *JoinResult
			var err error
			switch kind {
			case "join":
				res, err = m.Join(ViewerInfo{ID: id, InboundMbps: 8, OutboundMbps: out}, view)
			case "leave":
				err = m.Leave(id)
			default:
				res, err = m.ChangeView(id, view)
			}
			if err != nil {
				t.Fatalf("op %d %s %s: %v", op, kind, id, err)
			}
			if m == deferred || op%every == 0 {
				if err := m.Validate(); err != nil {
					t.Fatalf("op %d %s %s (alwaysWalk=%v): %v", op, kind, id, m.alwaysWalk, err)
				}
			}
			outcomes[i] = fmt.Sprintf("%+v", m.QuickSnapshot())
			if res != nil {
				outcomes[i] += fmt.Sprintf(" admitted=%v accepted=%v", res.Admitted, res.Accepted)
			}
			for _, d := range m.DrainDrops() {
				if i == 0 {
					drops[d.Reason]++
				}
			}
		}
		if outcomes[0] != outcomes[1] {
			t.Fatalf("op %d %s %s: deferred re-keys gave %s, immediate %s", op, kind, id, outcomes[0], outcomes[1])
		}
		if op%every != 0 {
			continue
		}
		a, err := deferred.ExportState().Encode()
		if err != nil {
			t.Fatal(err)
		}
		b, err := immediate.ExportState().Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("op %d: exported state differs between deferred and immediate re-keys", op)
		}
		for _, g := range deferred.groups {
			for _, tree := range g.Trees {
				if tree == nil {
					continue
				}
				for deg := 0; deg <= 4; deg++ {
					// The probe takes the top free slot and gives it
					// back, so the manager's tree is left as it was.
					probe := testNode(tree, "probe", deg, float64(rng.Intn(9)))
					checkAgainstReference(t, tree, probe)
					tree.Recycle(probe)
				}
			}
		}
	}
	// The run is only a test of the adaptation path if it took it: the
	// CDN filled up, so re-rooting was refused, and drains dropped streams
	// past d_max, each drop re-placing the dropped node's victims.
	if peak := deferred.CDN().Snapshot().PeakOutMbps; peak < cdnCap-2 {
		t.Fatalf("the CDN peaked at %v of %v Mbps: re-rooting was never refused", peak, float64(cdnCap))
	}
	if drops[ReasonDelayBound] == 0 {
		t.Fatalf("no drain dropped a stream past d_max: %v", drops)
	}
}

// TestValidateSeesPlantedRekeyAndRecordCorruption plants the slips the
// settled keys and the slice-backed outbound records could make, one at a
// time, into a manager that validates clean, and requires the validator to
// name each.
func TestValidateSeesPlantedRekeyAndRecordCorruption(t *testing.T) {
	m := newTestManager(t, 6000)
	for i := 0; i < 40; i++ {
		mustJoin(t, m, viewerN(i, 12, float64(i%7)), 0)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	v, _ := m.Viewer("v0003")
	if len(v.Nodes) < 2 || len(v.Out) != len(v.Nodes) {
		t.Fatal("fixture viewer does not hold every accepted stream")
	}
	n := v.Nodes[0]
	tree := v.Group.Trees[n.stream]
	slot := n.slot - 1
	layer := n.Layer
	out := v.Out
	grown := append(append([]OutboundShare(nil), out...), make([]OutboundShare, len(v.Request.Streams))...)
	cases := []struct {
		name        string
		want        string
		plant, undo func()
	}{
		{"heap key left unsettled after an operation", "unsettled",
			// An operation that pushed a layer down and returned without
			// its settle.
			func() { tree.setLayer(n, layer+1) },
			func() { tree.setLayer(n, layer); tree.settle() }},
		{"stale flag left on a settled key", "unsettled",
			func() { tree.store.stale[slot] = true },
			func() { tree.store.stale[slot] = false }},
		{"outbound record shorter than the streams it holds", "beyond its outbound record",
			func() { v.Out = out[:len(v.Nodes)-1] },
			func() { v.Out = out }},
		{"outbound record longer than its request", "longer than its request",
			func() { v.Out = grown },
			func() { v.Out = out }},
		{"outbound share off its node's out-degree", "off its outbound share",
			func() { out[0].Deg++ },
			func() { out[0].Deg-- }},
		{"outbound record over capacity", "outbound",
			func() { out[len(out)-1].Mbps += v.Info.OutboundMbps + 1 },
			func() { out[len(out)-1].Mbps -= v.Info.OutboundMbps + 1 }},
	}
	for _, c := range cases {
		c.plant()
		err := m.Validate()
		switch {
		case err == nil:
			t.Errorf("%s: validator saw nothing", c.name)
		case !strings.Contains(err.Error(), c.want):
			t.Errorf("%s: validator named another slip: %v", c.name, err)
		}
		c.undo()
		if err := m.Validate(); err != nil {
			t.Fatalf("%s: undo left the manager invalid: %v", c.name, err)
		}
	}
}
