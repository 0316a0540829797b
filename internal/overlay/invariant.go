package overlay

import (
	"fmt"
	"slices"
)

// The tree-invariant checker. validate() is called by tests after every
// mutation (and transitively by Manager.Validate after bulk operations); it
// re-derives from first principles everything the incremental admission
// indexes claim to know and fails loudly on the first drift. The checks:
//
//   - structure: unique nodes, parent/child symmetry, per-node degree
//     bounds, no nodes unreachable from the roots;
//   - root bookkeeping: roots have no parent and appear exactly once, and
//     the slot-indexed root-position mirror names each root's index in the
//     root list and -1 for every other slot;
//   - delay chain: EffE2E ≥ MinE2E everywhere, every child's minimum delay
//     is exactly its parent's effective delay plus d_prop plus δ, its
//     cached edge equals d_prop, and no layer sits below the minimum its
//     path implies;
//   - membership: the tracked flags count to the size counter, every
//     tracked slot is bound, and the tracked nodes are exactly the attached
//     ones (no victim may be left in flight);
//   - counters: the O(1) free-slot counter equals a full recount, the
//     degree census equals a recount of attached nodes;
//   - level index: every attached node is filed exactly once, at its true
//     depth, in the bucket of its out-degree and in the half (full / has a
//     free slot) its child count names; both halves of every bucket are
//     heap-ordered under lessSlot; the position mirror names each member's
//     actual heap index and -1 for every unfiled slot; and every per-level
//     count (nodes, free slots) equals a recount;
//   - slab/SoA bookkeeping: every bound slot's registry entry points back
//     at its node, the dense mirrors of tracked nodes (degree, capacity,
//     effective delay, child count) agree with the struct fields, no
//     heap key is left unsettled (no slot flagged stale, an empty stale
//     queue — so the heaps are ordered under the nodes' current EffE2E),
//     unattached nodes hold no heap position and non-roots no root
//     position, the free list holds exactly the unbound slots with no
//     duplicates, no unbound slot names an owner, and every per-slot array
//     spans the slab.
//
// Manager.Validate adds the manager-level bookkeeping on top (the checks at
// the end of this file): registration — an admitted record's group is the
// registered group of its key and lists it as a member, a rejected record
// holds no node, every member is the routed record — the subscription
// worklist is empty with no record flagged pending, every bound slot's
// owner is the member whose Nodes hold it, the positional stream
// index is consistent (each group's Trees span its stream set with every
// tree at its own stream's position, and each record's Nodes follow its
// request's priority order, each bound by the tree its stream index
// names), and the spare node stores are within their cap, held once, in no
// registered tree, and all free.

// validate checks every tree invariant; tests call it after mutations.
func (t *Tree) validate() error {
	tracked := 0
	for slot, on := range t.store.tracked {
		if !on {
			continue
		}
		if t.store.nodes[slot] == nil {
			return errIndexDrift("slab", "unbound slot tracked")
		}
		tracked++
	}
	if tracked != t.size {
		return errCounterDrift("tracked nodes", t.size, tracked)
	}
	seen := make(map[viewerID]bool, t.size)
	depths := make(map[*Node]int, t.size)
	var rec func(n *Node, depth int) error
	rec = func(n *Node, depth int) error {
		if seen[n.Viewer] {
			return errDuplicateNode(string(n.Viewer))
		}
		seen[n.Viewer] = true
		if !t.tracks(n) || t.store.nodes[n.slot-1] != n {
			return errIndexDrift(string(n.Viewer), "attached but not tracked")
		}
		depths[n] = depth
		if len(n.Children) > n.OutDeg {
			return errOverDegree(string(n.Viewer), len(n.Children), n.OutDeg)
		}
		if n.EffE2E < n.MinE2E {
			return errDelayOrder(string(n.Viewer), "EffE2E below MinE2E")
		}
		if n.Layer < t.params.Hierarchy.LayerOf(n.MinE2E) {
			return errDelayOrder(string(n.Viewer), "layer below path minimum")
		}
		for _, c := range n.Children {
			if c.Parent != n {
				return errBadParentLink(string(c.Viewer))
			}
			if c.MinE2E < n.EffE2E {
				return errDelayOrder(string(c.Viewer), "MinE2E below parent EffE2E")
			}
			d := t.prop(n.Viewer, c.Viewer)
			if c.slot != 0 && t.store.edge[c.slot-1] != d {
				return errIndexDrift(string(c.Viewer), "edge mirror drift")
			}
			if c.MinE2E != n.EffE2E+d+t.params.Proc {
				return errDelayOrder(string(c.Viewer), "MinE2E off the parent's delay chain")
			}
			if err := rec(c, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	rootSeen := make(map[*Node]bool, len(t.roots))
	for i, r := range t.roots {
		if r.Parent != nil {
			return errBadParentLink(string(r.Viewer))
		}
		if rootSeen[r] {
			return errRootBookkeeping(string(r.Viewer), "listed twice")
		}
		rootSeen[r] = true
		if !t.tracks(r) {
			return errRootBookkeeping(string(r.Viewer), "not tracked")
		}
		if r.slot == 0 || t.store.rootPos[r.slot-1] != int32(i) {
			return errRootBookkeeping(string(r.Viewer), "position mirror drift")
		}
		if err := rec(r, 0); err != nil {
			return err
		}
	}
	if len(seen) != t.size {
		return errOrphanNodes(t.size - len(seen))
	}
	return t.validateIndexes(depths)
}

// validateIndexes recounts every incremental index against the attached
// nodes in depths (node → true depth).
func (t *Tree) validateIndexes(depths map[*Node]int) error {
	// O(1) free-slot counter vs. a recount over the tracked nodes.
	free := 0
	t.eachTracked(func(n *Node) { free += n.FreeSlots() })
	if free != t.free {
		return errCounterDrift("free slots", t.free, free)
	}
	// Degree census vs. a recount over attached nodes.
	census := make([]int, len(t.degTotals))
	for n := range depths {
		if n.OutDeg >= len(census) {
			return errIndexDrift(string(n.Viewer), "degree beyond census")
		}
		census[n.OutDeg]++
	}
	for d, want := range census {
		if t.degTotals[d] != want {
			return errCounterDrift("degree census", t.degTotals[d], want)
		}
	}
	// Level index: membership, depth, heap order, position mirror, the
	// full/free partition, and per-level counters.
	filed := make(map[*Node]int, len(depths))
	for depth, li := range t.levels {
		count, freeCount := 0, 0
		for deg := range li.buckets {
			b := &li.buckets[deg]
			for _, hasFree := range []bool{false, true} {
				h := *b.half(hasFree)
				for i, slot := range h {
					n := t.store.nodes[slot]
					if n == nil {
						return errIndexDrift("slab", "unbound slot in bucket")
					}
					if _, dup := filed[n]; dup {
						return errIndexDrift(string(n.Viewer), "filed twice")
					}
					filed[n] = depth
					if n.OutDeg != deg {
						return errIndexDrift(string(n.Viewer), "wrong degree bucket")
					}
					if int(t.store.depth[slot]) != depth {
						return errIndexDrift(string(n.Viewer), "stale depth")
					}
					if t.store.pos[slot] != int32(i) {
						return errIndexDrift(string(n.Viewer), "heap position mirror drift")
					}
					if (n.FreeSlots() > 0) != hasFree {
						return errIndexDrift(string(n.Viewer), "wrong half of the full/free partition")
					}
					if i > 0 && t.store.lessSlot(slot, h[(i-1)/2]) {
						return errIndexDrift(string(n.Viewer), "heap order violated")
					}
				}
				count += len(h)
			}
			freeCount += len(b.free)
		}
		if li.count != count {
			return errCounterDrift("level count", li.count, count)
		}
		if li.free != freeCount {
			return errCounterDrift("level free", li.free, freeCount)
		}
	}
	if len(filed) != len(depths) {
		return errCounterDrift("indexed nodes", len(filed), len(depths))
	}
	for n, depth := range depths {
		if filedDepth, ok := filed[n]; !ok || filedDepth != depth {
			return errIndexDrift(string(n.Viewer), "missing or misfiled")
		}
	}
	return t.validateSlab(depths)
}

// validateSlab recounts the slab and SoA bookkeeping (slab.go): the free
// list against the registry, slot bindings, and every dense mirror against
// the struct field it shadows.
func (t *Tree) validateSlab(depths map[*Node]int) error {
	s := t.store
	total := len(s.nodes)
	if len(s.blocks)*slabBlockSize != total {
		return errCounterDrift("slab capacity", len(s.blocks)*slabBlockSize, total)
	}
	for _, l := range []int{len(s.deg), len(s.cap), len(s.eff), len(s.kids),
		len(s.depth), len(s.pos), len(s.rootPos), len(s.edge),
		len(s.stale), len(s.tracked), len(s.owner)} {
		if l != total {
			return errCounterDrift("slab array span", l, total)
		}
	}
	// Every refresh's deferred re-key is settled before the tree hands
	// control back (between manager operations), and Validate settles
	// nothing itself.
	if len(s.staleQ) != 0 {
		return errIndexDrift("slab", fmt.Sprintf("%d heap keys left unsettled", len(s.staleQ)))
	}
	onFree := make(map[int32]bool, len(s.freeList))
	for _, slot := range s.freeList {
		if slot < 0 || int(slot) >= total {
			return errIndexDrift("slab", "free slot out of range")
		}
		if onFree[slot] {
			return errIndexDrift("slab", "slot freed twice")
		}
		onFree[slot] = true
		if s.nodes[slot] != nil {
			return errIndexDrift(string(s.nodes[slot].Viewer), "bound slot on free list")
		}
	}
	for slot, n := range s.nodes {
		if s.stale[slot] {
			return errIndexDrift("slab", "heap key left unsettled")
		}
		if n == nil {
			if !onFree[int32(slot)] {
				return errIndexDrift("slab", "unbound slot missing from free list")
			}
			if s.pos[slot] != -1 || s.rootPos[slot] != -1 {
				return errIndexDrift("slab", "unbound slot keeps a position")
			}
			if s.owner[slot] != nil {
				return errIndexDrift("slab", "unbound slot keeps an owner")
			}
			continue
		}
		if n.slot != int32(slot)+1 {
			return errIndexDrift(string(n.Viewer), "slot binding mismatch")
		}
		// The root walk proved every root's mirror; nobody else has one.
		if (n.Parent != nil || !s.filed(int32(slot))) && s.rootPos[slot] != -1 {
			return errIndexDrift(string(n.Viewer), "non-root keeps a root position")
		}
		// The bucket walk proved every attached node's heap position.
		if _, attached := depths[n]; s.filed(int32(slot)) && !attached {
			return errIndexDrift(string(n.Viewer), "unattached node keeps a heap position")
		}
		if !s.tracked[slot] {
			continue
		}
		if s.deg[slot] != int32(n.OutDeg) || s.cap[slot] != n.OutCap {
			return errIndexDrift(string(n.Viewer), "degree/capacity mirror drift")
		}
		if s.kids[slot] != int32(len(n.Children)) {
			return errIndexDrift(string(n.Viewer), "child-count mirror drift")
		}
		if s.eff[slot] != n.EffE2E {
			return errIndexDrift(string(n.Viewer), "effective-delay mirror drift")
		}
	}
	return nil
}

// validateRecords checks registration and the worklist. The worklist is
// empty and no record is flagged pending: every operation drains it or
// clears it on exhaustion. An admitted record's group is the registered
// group of its key and lists the record as a member; a rejected record,
// which may keep a retired group, holds no node.
func (m *Manager) validateRecords() error {
	if len(m.pendingQ) != 0 || m.pendingHead != 0 {
		return errWorklist(len(m.pendingQ) - m.pendingHead)
	}
	for id, v := range m.viewers {
		switch {
		case v.pending:
			return errRecordDrift(string(id), "flagged pending outside an operation")
		case v.Rejected:
			if len(v.Nodes) != 0 {
				return errRecordDrift(string(id), "rejected but holds a node")
			}
		case m.groups[v.Group.Key] != v.Group:
			return errRecordDrift(string(id), "admitted into an unregistered group")
		case v.Group.Members[id] != v:
			return errRecordDrift(string(id), "admitted but not a member of its group")
		}
	}
	return nil
}

// validateOwners checks g.Trees[i] against the viewer records: every bound
// slot's node carries the tree's position as its stream index, its owner
// is the group member that binds it, and the owner's Nodes hold it; no
// bound node sits beyond the d_max layer. The tree check has already shown
// every attached node bound.
func (m *Manager) validateOwners(g *Group, i int, t *Tree) error {
	maxLayer := m.params.Hierarchy.MaxLayer()
	for slot, n := range t.store.nodes {
		if n == nil {
			continue
		}
		if n.Layer > maxLayer {
			return errDelayBound(string(n.Viewer), n.Layer, maxLayer)
		}
		o := t.store.owner[slot]
		if o == nil || int(n.stream) != i || g.Members[n.Viewer] != o || !slices.Contains(o.Nodes, n) {
			return errViewerTreeMismatch(string(n.Viewer), t.Stream.ID.String())
		}
	}
	return nil
}

// validateStreamIndex checks a registered group's positional stream index:
// Trees spans the group's stream set, and every tree sits at its own
// stream's position.
func validateStreamIndex(g *Group) error {
	if len(g.Trees) != len(g.Request.Streams) || len(g.ids) != len(g.Request.Streams) {
		return errIndexDrift(string(g.Key), "trees do not span the group's streams")
	}
	for i, t := range g.Trees {
		if t != nil && t.Stream.ID != g.ids[i] {
			return errIndexDrift(t.Stream.ID.String(), "tree off its stream's position")
		}
	}
	return nil
}

// validateSpares checks the spare node stores: no more than the cap, each
// held once and by no registered tree, and each with every slot free and
// ownerless, so reset can rebuild its free stack and it pins no record.
func (m *Manager) validateSpares() error {
	if len(m.spare) > m.spareMax {
		return errSpareStore(fmt.Sprintf("list holds %d, cap %d", len(m.spare), m.spareMax))
	}
	held := make(map[*nodeStore]bool, len(m.spare))
	for _, g := range m.groups {
		for _, t := range g.Trees {
			if t != nil {
				held[t.store] = true
			}
		}
	}
	for _, s := range m.spare {
		if held[s] {
			return errSpareStore("held twice or by a registered tree")
		}
		held[s] = true
		if !s.allFree() {
			return errSpareStore("has a bound slot")
		}
		for slot, n := range s.nodes {
			if n != nil || s.owner[slot] != nil {
				return errSpareStore("has a bound or owned slot")
			}
		}
	}
	return nil
}

// eachTracked calls fn on every node the tree tracks, in slot order.
func (t *Tree) eachTracked(fn func(*Node)) {
	for slot, on := range t.store.tracked {
		if on {
			fn(t.store.nodes[slot])
		}
	}
}
