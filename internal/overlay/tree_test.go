package overlay

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"telecast/internal/layering"
	"telecast/internal/model"
)

func testParams(t testing.TB) Params {
	t.Helper()
	h, err := layering.NewHierarchy(60*time.Second, 300*time.Millisecond, 65*time.Second, 2)
	if err != nil {
		t.Fatal(err)
	}
	return Params{Hierarchy: h, Proc: 100 * time.Millisecond, CutoffDF: 0.5}
}

func constProp(d time.Duration) PropFunc {
	return func(a, b model.ViewerID) time.Duration { return d }
}

func newTestTree(t *testing.T, prop PropFunc) *Tree {
	t.Helper()
	return newTree(model.StreamID{Site: "A", Index: 1}, 2.0, 10, newNodeStore(), prop, testParams(t))
}

// testNode makes a node of a fresh record for viewer id in the tree, the
// way a manager join would: the record carries the capacity.
func testNode(tree *Tree, id model.ViewerID, deg int, cap float64) *Node {
	return tree.NewNode(&Viewer{Info: ViewerInfo{ID: id, OutboundMbps: cap}}, deg)
}

func mkNode(tree *Tree, id string, deg int) *Node {
	return testNode(tree, model.ViewerID(id), deg, float64(2*deg))
}

func requireValid(t *testing.T, tree *Tree) {
	t.Helper()
	if err := tree.validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertIntoEmptyTreeFails(t *testing.T) {
	tree := newTestTree(t, constProp(50*time.Millisecond))
	placed, _ := tree.Insert(mkNode(tree, "u1", 3))
	if placed {
		t.Fatal("empty tree has no P2P position; CDN is the only root source")
	}
}

func TestAttachToCDNAndFillSlots(t *testing.T) {
	tree := newTestTree(t, constProp(50*time.Millisecond))
	root := mkNode(tree, "root", 2)
	tree.AttachToCDN(root)
	if root.MinE2E != 60*time.Second {
		t.Fatalf("root delay = %v, want Δ", root.MinE2E)
	}
	// Two equal-degree joiners fill root's free slots rather than
	// displacing it (they don't beat it: equal degree, equal cap).
	a := mkNode(tree, "a", 2)
	placed, displaced := tree.Insert(a)
	if !placed || displaced != nil {
		t.Fatalf("a: placed=%v displaced=%v", placed, displaced)
	}
	if a.Parent != root {
		t.Fatal("a should attach under root")
	}
	b := mkNode(tree, "b", 2)
	if placed, _ := tree.Insert(b); !placed {
		t.Fatal("b should fill the second slot")
	}
	if tree.freeSlots(root) != 0 {
		t.Fatalf("root free slots = %d", tree.freeSlots(root))
	}
	requireValid(t, tree)
	// Child delay: Δ + prop + δ = 60s + 150ms → layer 1.
	want := 60*time.Second + 150*time.Millisecond
	if a.MinE2E != want {
		t.Errorf("child delay = %v, want %v", a.MinE2E, want)
	}
}

func TestInsertPushesDownWeakerNode(t *testing.T) {
	tree := newTestTree(t, constProp(50*time.Millisecond))
	weak := mkNode(tree, "weak", 1)
	tree.AttachToCDN(weak)
	strong := mkNode(tree, "strong", 4)
	placed, displaced := tree.Insert(strong)
	if !placed || displaced != weak {
		t.Fatalf("placed=%v displaced=%v", placed, displaced)
	}
	if strong.Parent != nil {
		t.Fatal("strong should take the CDN slot")
	}
	if weak.Parent != strong {
		t.Fatal("weak should become strong's child")
	}
	if roots := tree.Roots(); len(roots) != 1 || roots[0] != strong {
		t.Fatalf("roots = %v", roots)
	}
	requireValid(t, tree)
}

func TestInsertPrefersFreeSlotOverDisplacement(t *testing.T) {
	tree := newTestTree(t, constProp(50*time.Millisecond))
	root := mkNode(tree, "root", 2)
	tree.AttachToCDN(root)
	low := mkNode(tree, "low", 1)
	if placed, _ := tree.Insert(low); !placed {
		t.Fatal("low should attach")
	}
	// mid beats low (degree 2 > 1) but a free slot remains under root at
	// the same level; the virtual empty (−1) sorts first so mid attaches
	// without displacing.
	mid := mkNode(tree, "mid", 2)
	placed, displaced := tree.Insert(mid)
	if !placed || displaced != nil {
		t.Fatalf("placed=%v displaced=%v", placed, displaced)
	}
	if mid.Parent != root || low.Parent != root {
		t.Fatal("both children should hang off root")
	}
	requireValid(t, tree)
}

func TestInsertTieBreakOnOutboundCapacity(t *testing.T) {
	tree := newTestTree(t, constProp(50*time.Millisecond))
	incumbent := testNode(tree, "inc", 2, 4)
	tree.AttachToCDN(incumbent)
	// Same degree, more raw capacity → displaces.
	rich := testNode(tree, "rich", 2, 9)
	placed, displaced := tree.Insert(rich)
	if !placed || displaced != incumbent {
		t.Fatalf("placed=%v displaced=%v", placed, displaced)
	}
	requireValid(t, tree)
}

func TestDisplacedSubtreeMovesIntact(t *testing.T) {
	tree := newTestTree(t, constProp(50*time.Millisecond))
	mid := mkNode(tree, "mid", 1)
	tree.AttachToCDN(mid)
	leaf := mkNode(tree, "leaf", 0)
	if placed, _ := tree.Insert(leaf); !placed {
		t.Fatal("leaf should attach under mid")
	}
	big := mkNode(tree, "big", 5)
	placed, displaced := tree.Insert(big)
	if !placed || displaced != mid {
		t.Fatalf("placed=%v displaced=%v", placed, displaced)
	}
	if leaf.Parent != mid || mid.Parent != big {
		t.Fatal("subtree links broken")
	}
	// Delays deepen by one hop: leaf now Δ + 2·(prop+δ).
	want := 60*time.Second + 2*(150*time.Millisecond)
	if leaf.MinE2E != want {
		t.Errorf("leaf delay = %v, want %v", leaf.MinE2E, want)
	}
	if tree.Depth() != 3 {
		t.Errorf("depth = %d, want 3", tree.Depth())
	}
	requireValid(t, tree)
}

func TestZeroDegreeJoinerNeedsFreeSlot(t *testing.T) {
	tree := newTestTree(t, constProp(50*time.Millisecond))
	root := mkNode(tree, "root", 1)
	tree.AttachToCDN(root)
	a := mkNode(tree, "a", 0)
	if placed, _ := tree.Insert(a); !placed {
		t.Fatal("free slot should accept zero-degree viewer")
	}
	b := mkNode(tree, "b", 0)
	if placed, _ := tree.Insert(b); placed {
		t.Fatal("no slot and nothing to beat: insert must fail")
	}
	requireValid(t, tree)
}

func TestDetachProducesVictims(t *testing.T) {
	tree := newTestTree(t, constProp(50*time.Millisecond))
	root := mkNode(tree, "root", 2)
	tree.AttachToCDN(root)
	a, b := mkNode(tree, "a", 1), mkNode(tree, "b", 0)
	tree.Insert(a)
	tree.Insert(b)
	victims := tree.Detach(root)
	if len(victims) != 2 {
		t.Fatalf("victims = %d, want 2", len(victims))
	}
	if tree.Size() != 2 {
		t.Fatalf("size = %d, want 2 (victims stay known)", tree.Size())
	}
	for _, v := range victims {
		if v.Parent != nil {
			t.Error("victim still linked")
		}
	}
	if len(tree.Roots()) != 0 {
		t.Error("detached root still in roots")
	}
}

func TestReattachVictimKeepsSubtree(t *testing.T) {
	tree := newTestTree(t, constProp(50*time.Millisecond))
	root := mkNode(tree, "root", 1)
	tree.AttachToCDN(root)
	mid := mkNode(tree, "mid", 1)
	tree.Insert(mid)
	leaf := mkNode(tree, "leaf", 0)
	tree.Insert(leaf)

	// Remove root; mid (with leaf beneath) is the victim.
	victims := tree.Detach(root)
	if len(victims) != 1 || victims[0] != mid {
		t.Fatalf("victims = %v", victims)
	}
	// No attached nodes remain, so reattach must fail (CDN fallback).
	if placed, _ := tree.Reattach(mid); placed {
		t.Fatal("reattach with empty tree should fail")
	}
	tree.AttachToCDN(mid)
	if mid.Parent != nil || leaf.Parent != mid {
		t.Fatal("subtree broken after CDN reattach")
	}
	if mid.MinE2E != 60*time.Second {
		t.Errorf("mid delay = %v, want Δ", mid.MinE2E)
	}
	requireValid(t, tree)
}

func TestMoveToCDNKeepsChildren(t *testing.T) {
	tree := newTestTree(t, constProp(50*time.Millisecond))
	root := mkNode(tree, "root", 1)
	tree.AttachToCDN(root)
	mid := mkNode(tree, "mid", 1)
	tree.Insert(mid)
	leaf := mkNode(tree, "leaf", 0)
	tree.Insert(leaf)
	tree.MoveToCDN(mid)
	if mid.Parent != nil {
		t.Fatal("mid should be a root now")
	}
	if len(tree.Roots()) != 2 {
		t.Fatalf("roots = %d, want 2", len(tree.Roots()))
	}
	if leaf.Parent != mid {
		t.Fatal("leaf lost")
	}
	if tree.freeSlots(root) != 1 {
		t.Errorf("old parent slot not freed")
	}
	requireValid(t, tree)
}

func TestHasSupplyFor(t *testing.T) {
	tree := newTestTree(t, constProp(50*time.Millisecond))
	if tree.HasSupplyFor(10, 100) {
		t.Fatal("empty tree has no P2P supply")
	}
	root := mkNode(tree, "root", 1)
	tree.AttachToCDN(root)
	if !tree.HasSupplyFor(0, 0) {
		t.Fatal("free slot is supply for anyone")
	}
	leaf := mkNode(tree, "leaf", 0)
	tree.Insert(leaf)
	if tree.HasSupplyFor(0, 0) {
		t.Fatal("full tree with nothing beatable")
	}
	if !tree.HasSupplyFor(2, 4) {
		t.Fatal("degree-2 joiner can displace the leaf")
	}
}

func TestOverlayPropertyHigherDegreeCloserToRoot(t *testing.T) {
	// Insert nodes in adversarial (ascending-degree) order: the push-down
	// must still leave every path with non-increasing degree from root to
	// leaf — the paper's overlay property within one tree.
	tree := newTestTree(t, constProp(20*time.Millisecond))
	degrees := []int{0, 1, 2, 3, 4, 5, 6}
	for i, d := range degrees {
		n := testNode(tree, model.ViewerID(rune('a'+i)), d, float64(d))
		if placed, _ := tree.Insert(n); !placed {
			tree.AttachToCDN(n)
		}
	}
	requireValid(t, tree)
	tree.Walk(func(n *Node) {
		for _, c := range n.Children {
			if tree.deg(c) > tree.deg(n) {
				t.Errorf("child %s (deg %d) above parent %s (deg %d)",
					c.Viewer(), tree.deg(c), n.Viewer(), tree.deg(n))
			}
		}
	})
}

func TestLayerAssignmentNeverBelowMinimum(t *testing.T) {
	tree := newTestTree(t, constProp(200*time.Millisecond))
	root := mkNode(tree, "root", 1)
	tree.AttachToCDN(root)
	child := mkNode(tree, "child", 1)
	tree.Insert(child)
	// prop+δ = 300ms ⇒ min layer 2 (τ=150ms).
	if got := testParams(t).Hierarchy.LayerOf(child.MinE2E); got != 2 {
		t.Fatalf("min layer = %d, want 2", got)
	}
	tree.setLayer(child, 0) // below minimum: must clamp up
	if child.Layer != 2 {
		t.Errorf("layer = %d, want clamped to 2", child.Layer)
	}
	tree.setLayer(child, 5) // push-down: allowed
	if child.Layer != 5 {
		t.Errorf("layer = %d, want 5", child.Layer)
	}
	// Effective delay moves to the top of layer 5.
	want := 60*time.Second + 5*150*time.Millisecond
	if child.EffE2E != want {
		t.Errorf("eff delay = %v, want %v", child.EffE2E, want)
	}
}

// Property: any insertion sequence (random degrees, CDN fallback when
// push-down fails) leaves a structurally valid tree in which no child has a
// strictly higher out-degree than its parent — the within-tree half of the
// paper's overlay property.
func TestInsertSequenceProperty(t *testing.T) {
	f := func(degreesRaw []uint8) bool {
		tree := newTestTree(t, constProp(25*time.Millisecond))
		for i, raw := range degreesRaw {
			if i >= 60 {
				break
			}
			deg := int(raw % 7)
			n := testNode(tree, model.ViewerID(fmt.Sprintf("q%03d", i)), deg, float64(deg*2))
			if placed, _ := tree.Insert(n); !placed {
				tree.AttachToCDN(n)
			}
		}
		if err := tree.validate(); err != nil {
			return false
		}
		ok := true
		tree.Walk(func(n *Node) {
			for _, c := range n.Children {
				if tree.deg(c) > tree.deg(n) {
					ok = false
				}
			}
			if n.Layer > testParams(t).Hierarchy.MaxLayer() {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
