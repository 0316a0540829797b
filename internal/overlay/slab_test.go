package overlay

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
	"unsafe"

	"telecast/internal/model"
)

// TestNodeSize pins the node's footprint on 64-bit platforms: the node
// points at its viewer record instead of copying the viewer's ID and
// capacity, its out-degree lives only in the slab's deg column, and the
// stream index shares the padding after the slot, so every slab block stays
// 256 × 72 B.
func TestNodeSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Node{}); got != 72 {
		t.Errorf("Node is %d B, want 72", got)
	}
}

// TestSlabNewNodeAndRecycle pins the basic slot lifecycle: slab-born nodes
// get distinct slots, Recycle returns the slot LIFO, and the next NewNode
// reuses it with a fully zeroed struct.
func TestSlabNewNodeAndRecycle(t *testing.T) {
	tree := newTestTree(t, constProp(50*time.Millisecond))
	a := testNode(tree, "a", 2, 4)
	b := testNode(tree, "b", 3, 6)
	if a.slot == 0 || b.slot == 0 || a.slot == b.slot {
		t.Fatalf("slots a=%d b=%d, want distinct non-zero", a.slot, b.slot)
	}
	aSlot := a.slot
	tree.Recycle(a)
	if a.slot != 0 {
		t.Fatalf("recycled node keeps slot %d", a.slot)
	}
	c := testNode(tree, "c", 1, 2)
	if c.slot != aSlot {
		t.Fatalf("slot not recycled LIFO: got %d, want %d", c.slot, aSlot)
	}
	if c != a {
		t.Fatal("slab-born node struct not reused for its slot")
	}
	if c.Viewer() != "c" || tree.deg(c) != 1 || tree.store.cap[c.slot-1] != 2 || c.Parent != nil || len(c.Children) != 0 {
		t.Fatalf("recycled struct not clean: %+v", c)
	}
	stats := tree.SlabStats()
	if stats.Live != 2 || stats.Live+stats.Free != stats.Cap {
		t.Fatalf("slab stats drift: %+v", stats)
	}
}

// TestSlabRecycleGuards pins the safety contract: a tracked node is never
// recycled, double-recycle is a no-op, and a recycled node is zeroed, so it
// no longer pins its viewer record.
func TestSlabRecycleGuards(t *testing.T) {
	tree := newTestTree(t, constProp(50*time.Millisecond))
	root := mkNode(tree, "root", 2)
	tree.AttachToCDN(root)
	tree.Recycle(root) // still tracked: must be a no-op
	if root.slot == 0 {
		t.Fatal("tracked node was recycled")
	}
	requireValid(t, tree)

	victims := tree.Detach(root)
	if len(victims) != 0 {
		t.Fatalf("leaf detach produced %d victims", len(victims))
	}
	tree.Recycle(root)
	if root.slot != 0 {
		t.Fatal("detached node not recycled")
	}
	if root.Owner() != nil {
		t.Fatal("recycled node still points at its viewer record")
	}
	tree.Recycle(root) // double recycle: no-op
	requireValid(t, tree)
	if stats := tree.SlabStats(); stats.Live != 0 {
		t.Fatalf("slab live = %d after full recycle", stats.Live)
	}
}

// TestSlabChurnReusesSlots drives seeded random churn through the tree's
// full mutation surface and asserts, after every operation, that (a) the
// invariant checker's slab section holds, (b) recycled slots are actually
// reused instead of growing the slab, and (c) no live node aliases a
// recycled slot — the exact bug class slot recycling can introduce.
func TestSlabChurnReusesSlots(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			tree := newTestTree(t, constProp(50*time.Millisecond))
			live := make(map[model.ViewerID]*Node)
			next := 0

			check := func() {
				t.Helper()
				requireValid(t, tree)
				// No two live nodes may share a slot, and every live
				// node's slot registry entry must be itself.
				bySlot := make(map[int32]model.ViewerID, len(live))
				for id, n := range live {
					if n.slot == 0 {
						t.Fatalf("live node %s lost its slot", id)
					}
					if prev, dup := bySlot[n.slot]; dup {
						t.Fatalf("slot %d aliased by %s and %s", n.slot, prev, id)
					}
					bySlot[n.slot] = id
					if got := tree.store.at(n.slot - 1); got != n || n.Viewer() != id {
						t.Fatalf("slot %d holds %v, want %s", n.slot, got, id)
					}
				}
			}

			for op := 0; op < 400; op++ {
				switch r := rng.Intn(10); {
				case r < 6 || len(live) == 0: // join
					id := model.ViewerID(fmt.Sprintf("v%d", next))
					next++
					n := testNode(tree, id, rng.Intn(4), float64(rng.Intn(8)))
					if placed, _ := tree.Insert(n); !placed {
						if rng.Intn(2) == 0 {
							tree.AttachToCDN(n)
						} else {
							tree.Recycle(n) // failed placement path
							check()
							continue
						}
					}
					live[id] = n
				default: // depart with recovery-or-recycle of victims
					var id model.ViewerID
					for id = range live {
						break
					}
					n := live[id]
					delete(live, id)
					victims := tree.Detach(n)
					tree.Recycle(n)
					for len(victims) > 0 {
						v := victims[len(victims)-1]
						victims = victims[:len(victims)-1]
						if placed, _ := tree.Reattach(v); placed {
							continue
						}
						if tree.FreeSlots() == 0 && rng.Intn(2) == 0 {
							// Cascade-drop the victim.
							delete(live, v.Viewer())
							victims = append(victims, tree.Orphan(v)...)
							tree.Recycle(v)
							continue
						}
						tree.AttachToCDN(v)
					}
				}
				check()
			}

			// Slot reuse: churn kept the live set around a few dozen
			// nodes, so the slab must never have needed a second block.
			if stats := tree.SlabStats(); stats.Cap > 2*slabBlockSize {
				t.Fatalf("slab grew to %d slots for %d live nodes: slots not reused", stats.Cap, stats.Live)
			}
		})
	}
}

// TestSlabNewNodeFillsColumns pins that NewNode writes a node's
// out-degree and its record's capacity into the slab columns, the only place
// the tree keeps them, and that placement maintains the child-count and
// depth columns.
func TestSlabNewNodeFillsColumns(t *testing.T) {
	tree := newTestTree(t, constProp(50*time.Millisecond))
	root := mkNode(tree, "root", 3)
	tree.AttachToCDN(root)
	kid := mkNode(tree, "kid", 1)
	if placed, _ := tree.Insert(kid); !placed {
		t.Fatal("insert under free root failed")
	}
	requireValid(t, tree)
	for _, c := range []struct {
		n   *Node
		deg int32
	}{{root, 3}, {kid, 1}} {
		slot := c.n.slot - 1
		if tree.store.deg[slot] != c.deg || tree.store.cap[slot] != c.n.Owner().Info.OutboundMbps {
			t.Fatalf("%s columns deg=%d cap=%v, want %d/%v",
				c.n.Viewer(), tree.store.deg[slot], tree.store.cap[slot], c.deg, c.n.Owner().Info.OutboundMbps)
		}
	}
	if tree.store.kids[root.slot-1] != 1 {
		t.Fatalf("root child mirror = %d, want 1", tree.store.kids[root.slot-1])
	}
	if tree.depthOf(kid) != 1 {
		t.Fatalf("kid depth = %d, want 1", tree.depthOf(kid))
	}
}
