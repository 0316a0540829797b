package overlay

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"telecast/internal/model"
)

// The differential suite pins the indexed admission to the paper-literal
// reference: across seeded random trees, findPosition (level-index walk)
// must elect exactly the node findPositionScan (BFS + per-level sort with
// virtual slots) elects, and the O(1) supply check must agree with a full
// recount. Any divergence would mean the optimisation silently changed
// Algorithm 1's placement semantics.

// hasSupplyScan is the pre-index reference supply test: a full walk of the
// tracked nodes, exactly what HasSupplyFor used to do.
func (t *Tree) hasSupplyScan(outDeg int, outCap float64) bool {
	total, beaten := 0, false
	t.eachTracked(func(z *Node) {
		total += t.freeSlots(z)
		beaten = beaten || beats(outDeg, outDeg, outCap, t.deg(z), t.store.cap[z.slot-1])
	})
	return total > 0 || beaten
}

// checkAgainstReference probes one candidate joiner against both position
// searches and both supply checks.
func checkAgainstReference(t *testing.T, tree *Tree, u *Node) {
	t.Helper()
	deg, cap := tree.deg(u), tree.store.cap[u.slot-1]
	iVictim, iParent := tree.findPosition(u)
	sVictim, sParent := tree.findPositionScan(u)
	if iVictim != sVictim || iParent != sParent {
		t.Fatalf("probe deg=%d cap=%v: indexed (victim=%v parent=%v) != scan (victim=%v parent=%v)\n%s",
			deg, cap, name(iVictim), name(iParent), name(sVictim), name(sParent), dumpLevels(tree))
	}
	if got, want := tree.HasSupplyFor(deg, cap), tree.hasSupplyScan(deg, cap); got != want {
		t.Fatalf("probe deg=%d cap=%v: HasSupplyFor=%v, recount says %v", deg, cap, got, want)
	}
}

func name(n *Node) string {
	if n == nil {
		return "<nil>"
	}
	return string(n.Viewer())
}

func dumpLevels(tree *Tree) string {
	out := ""
	tree.Walk(func(n *Node) {
		out += fmt.Sprintf("  %s deg=%d cap=%v depth=%d free=%d\n",
			n.Viewer(), tree.deg(n), tree.store.cap[n.slot-1], tree.depthOf(n), tree.freeSlots(n))
	})
	return out
}

// TestFindPositionMatchesReferenceScan grows seeded random trees through
// the full mutation surface — push-down inserts, CDN attaches, departures
// with victim recovery, CDN re-rooting, layer pushes — and after every
// mutation probes a spread of hypothetical joiners against the reference.
func TestFindPositionMatchesReferenceScan(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			tree := newTestTree(t, func(a, b model.ViewerID) time.Duration {
				// Deterministic, id-dependent asymmetric delays.
				return time.Duration(10+3*len(a)+7*len(b)) * time.Millisecond
			})
			probe := func() {
				t.Helper()
				for deg := 0; deg <= 7; deg++ {
					u := testNode(tree, "probe", deg, float64(rng.Intn(16)))
					checkAgainstReference(t, tree, u)
					tree.Recycle(u)
				}
			}
			next := 0
			var live []*Node
			for step := 0; step < 400; step++ {
				switch op := rng.Intn(10); {
				case op < 6 || len(live) == 0: // join
					deg := rng.Intn(7)
					n := testNode(tree, model.ViewerID(fmt.Sprintf("d%04d", next)), deg, float64(deg)+float64(rng.Intn(5)))
					next++
					if placed, _ := tree.Insert(n); !placed {
						tree.AttachToCDN(n)
					}
					live = append(live, n)
				case op < 8: // leave + victim recovery
					i := rng.Intn(len(live))
					n := live[i]
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
					victims := tree.Detach(n)
					for _, v := range victims {
						if placed, _ := tree.Reattach(v); !placed {
							tree.AttachToCDN(v)
						}
					}
				case op < 9: // delay-layer adaptation re-roots a subtree
					tree.MoveToCDN(live[rng.Intn(len(live))])
				default: // subscription pass pushes a layer down
					tree.setLayer(live[rng.Intn(len(live))], rng.Intn(6))
					tree.settle()
				}
				if err := tree.validate(); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				probe()
			}
		})
	}
}

// TestInsertSequenceMatchesReference replays identical adversarial insert
// sequences through two trees — one placing via the index, one via the
// reference scan — and requires byte-identical structures at every step.
func TestInsertSequenceMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prop := func(a, b model.ViewerID) time.Duration {
			return time.Duration(5+2*len(a)+3*len(b)) * time.Millisecond
		}
		indexed := newTestTree(t, prop)
		scanned := newTestTree(t, prop)
		for i := 0; i < 250; i++ {
			deg := rng.Intn(7)
			cap := float64(deg) + float64(rng.Intn(4))
			id := model.ViewerID(fmt.Sprintf("n%04d", i))

			a := testNode(indexed, id, deg, cap)
			if placed, _ := indexed.Insert(a); !placed {
				indexed.AttachToCDN(a)
			}

			b := testNode(scanned, id, deg, cap)
			victim, parent := scanned.findPositionScan(b)
			switch {
			case victim != nil:
				scanned.displace(victim, b)
			case parent != nil:
				scanned.attachUnder(parent, b)
			default:
				scanned.AttachToCDN(b)
			}

			if got, want := treeShape(indexed), treeShape(scanned); got != want {
				t.Fatalf("seed %d, insert %d: shapes diverged\nindexed:\n%s\nscan:\n%s", seed, i, got, want)
			}
		}
	}
}

// viewersOf lists the viewers of a changed-node slice.
func viewersOf(nodes []*Node) string {
	out := ""
	for _, n := range nodes {
		out += string(n.Viewer()) + " "
	}
	return out
}

// sameDelays walks two trees in lockstep and reports the first node where
// their shape, delay state or (below a root) cached edge differs.
func sameDelays(a, b *Tree) error {
	var rec func(x, y *Node) error
	rec = func(x, y *Node) error {
		if x.Viewer() != y.Viewer() || len(x.Children) != len(y.Children) ||
			x.MinE2E != y.MinE2E || x.Layer != y.Layer || x.EffE2E != y.EffE2E ||
			x.Parent != nil && a.store.edge[x.slot-1] != b.store.edge[y.slot-1] {
			return fmt.Errorf("%s (min %v layer %d eff %v) vs %s (min %v layer %d eff %v)",
				x.Viewer(), x.MinE2E, x.Layer, x.EffE2E, y.Viewer(), y.MinE2E, y.Layer, y.EffE2E)
		}
		for i := range x.Children {
			if err := rec(x.Children[i], y.Children[i]); err != nil {
				return err
			}
		}
		return nil
	}
	if len(a.roots) != len(b.roots) {
		return fmt.Errorf("%d roots vs %d", len(a.roots), len(b.roots))
	}
	for i := range a.roots {
		if err := rec(a.roots[i], b.roots[i]); err != nil {
			return err
		}
	}
	return nil
}

// treeShape serializes parent links, depths, and delay state, so equality
// means equality of every placement decision made so far.
func treeShape(t *Tree) string {
	out := ""
	t.Walk(func(n *Node) {
		parent := "CDN"
		if n.Parent != nil {
			parent = string(n.Parent.Viewer())
		}
		out += fmt.Sprintf("%s->%s@%d layer=%d eff=%v\n", n.Viewer(), parent, t.depthOf(n), n.Layer, n.EffE2E)
	})
	return out
}

// TestFindPositionMatchesReferenceScanDeep is the wide-tree twin of the test
// above, shaped like the deep.local-single benchmark: thousands of live
// nodes whose out-degree is 0, 1 or 2 and whose capacity takes 13 values, so
// every (level, out-degree) bucket holds hundreds to thousands of members
// that tie on (degree, capacity) and the election falls to the EffE2E and
// viewer-ID tie-breaks. The propagation delay takes four values, so EffE2E
// ties too, and layer pushes re-key filed nodes in place. Every position any
// mutation asks for — a join, a recovered victim — is resolved by both
// searches before it is applied, and the full validator recounts the heaps
// after every churn step.
//
// A twin tree replays every mutation with alwaysWalk set, i.e. with the
// delay refresh the tree made before its shortcuts (every edge re-derived
// from prop, no early stop, no unchanged-layer short-circuit). After every
// churn step the two trees must agree node for node, and every setLayer
// must report the same changed nodes.
func TestFindPositionMatchesReferenceScanDeep(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 5000-node tree under the reference scan")
	}
	// It builds its own trees and shares nothing with other tests, so it
	// overlaps the other long test of the package instead of following it.
	t.Parallel()
	const (
		target     = 5000
		churnSteps = 1500
	)
	rng := rand.New(rand.NewSource(18))
	prop := func(a, b model.ViewerID) time.Duration {
		return time.Duration(10+10*((len(a)+int(a[len(a)-1])+3*int(b[len(b)-1]))%4)) * time.Millisecond
	}
	tree, twin := newTestTree(t, prop), newTestTree(t, prop)
	twin.alwaysWalk = true
	next := 0
	var live, twinLive []*Node
	place := func(u, u2 *Node) {
		t.Helper()
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
		u := testNode(tree, model.ViewerID(fmt.Sprintf("w%06d", next)), deg, float64(rng.Intn(13)))
		next++
		u2 := twin.NewNode(u.owner, deg)
		place(u, u2)
		live = append(live, u)
		twinLive = append(twinLive, u2)
	}
	for step := 0; len(live) < target; step++ {
		join()
		if step%256 == 0 {
			requireInvariants(t, tree, step, "build")
		}
	}
	requireInvariants(t, tree, target, "build")
	for step := 0; step < churnSteps; step++ {
		op := "join"
		switch r := rng.Intn(10); {
		case r < 3 || len(live) <= target:
			join()
		case r < 6:
			op = "detach+reattach"
			i := rng.Intn(len(live))
			n, n2 := live[i], twinLive[i]
			live[i], twinLive[i] = live[len(live)-1], twinLive[len(live)-1]
			live, twinLive = live[:len(live)-1], twinLive[:len(live)-1]
			victims, twinVictims := tree.Detach(n), twin.Detach(n2)
			for j, v := range victims {
				place(v, twinVictims[j])
			}
		case r < 8:
			op = "move-to-cdn"
			i := rng.Intn(len(live))
			tree.MoveToCDN(live[i])
			twin.MoveToCDN(twinLive[i])
		default:
			op = "set-layer"
			i, layer := rng.Intn(len(live)), rng.Intn(6)
			got := viewersOf(tree.setLayer(live[i], layer))
			tree.settle()
			if want := viewersOf(twin.setLayer(twinLive[i], layer)); got != want {
				t.Fatalf("step %d: setLayer reports %q changed, the full walk %q", step, got, want)
			}
		}
		requireInvariants(t, tree, step, op)
		if err := sameDelays(tree, twin); err != nil {
			t.Fatalf("step %d after %s: %v", step, op, err)
		}
	}
	if len(live) < target || tree.Size() != len(live) {
		t.Fatalf("tree size %d, live census %d, want ≥ %d", tree.Size(), len(live), target)
	}
}
