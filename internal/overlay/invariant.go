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
//   - slab/SoA bookkeeping: every bound slot's node carries its slot and an
//     owner record, the dense columns of tracked nodes agree with what they
//     shadow (capacity with the owner record, effective delay and child
//     count with the node), no heap key is left unsettled (no slot flagged
//     stale, an empty stale queue — so the heaps are ordered under the
//     nodes' current EffE2E), unattached nodes hold no heap position and
//     non-roots no root position, the free list holds exactly the unbound
//     slots with no duplicates, no unbound slot keeps an owner, and every
//     per-slot array spans the slab.
//
// Manager.Validate adds the manager-level bookkeeping on top (the checks at
// the end of this file): registration — every record is filed under its
// own ID, an admitted record's group is the registered group of its key, a
// rejected record holds no node, and each group's member count equals its
// admitted records — the subscription worklist is empty with no record
// flagged pending, every bound node's owner is a routed member of the
// tree's group whose Nodes hold it, the positional stream index is
// consistent (each group's Trees span its stream set with every tree at its
// own stream's position, and each record's Nodes follow its request's
// priority order, each bound by the tree its stream index names, with the
// out-degree its outbound share grants), and the spare node stores are
// within their cap, held once, in no registered tree, and all free.

// validate checks every tree invariant; tests call it after mutations.
func (t *Tree) validate() error {
	tracked := 0
	for slot, on := range t.store.tracked {
		if !on {
			continue
		}
		if !t.store.bound(int32(slot)) {
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
		if !t.holds(n) || !t.tracks(n) || n.owner == nil {
			return errIndexDrift(n.name(), "attached but not tracked")
		}
		if seen[n.Viewer()] {
			return errDuplicateNode(n.name())
		}
		seen[n.Viewer()] = true
		depths[n] = depth
		if len(n.Children) > t.deg(n) {
			return errOverDegree(n.name(), len(n.Children), t.deg(n))
		}
		if n.EffE2E < n.MinE2E {
			return errDelayOrder(n.name(), "EffE2E below MinE2E")
		}
		if n.Layer < t.params.Hierarchy.LayerOf(n.MinE2E) {
			return errDelayOrder(n.name(), "layer below path minimum")
		}
		for _, c := range n.Children {
			if c.Parent != n {
				return errBadParentLink(c.name())
			}
			if c.MinE2E < n.EffE2E {
				return errDelayOrder(c.name(), "MinE2E below parent EffE2E")
			}
			// Only a node of this tree is known to have a routed owner
			// (validateOwners), so check c before d_prop looks it up.
			if !t.holds(c) || c.owner == nil {
				return errIndexDrift(c.name(), "attached but not tracked")
			}
			d := t.prop(n.Viewer(), c.Viewer())
			if c.slot != 0 && t.store.edge[c.slot-1] != d {
				return errIndexDrift(c.name(), "edge mirror drift")
			}
			if c.MinE2E != n.EffE2E+d+t.params.Proc {
				return errDelayOrder(c.name(), "MinE2E off the parent's delay chain")
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
			return errBadParentLink(r.name())
		}
		if rootSeen[r] {
			return errRootBookkeeping(r.name(), "listed twice")
		}
		rootSeen[r] = true
		if !t.holds(r) || !t.tracks(r) {
			return errRootBookkeeping(r.name(), "not tracked")
		}
		if r.slot == 0 || t.store.rootPos[r.slot-1] != int32(i) {
			return errRootBookkeeping(r.name(), "position mirror drift")
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
	t.eachTracked(func(n *Node) { free += t.freeSlots(n) })
	if free != t.free {
		return errCounterDrift("free slots", t.free, free)
	}
	// Degree census vs. a recount over attached nodes.
	census := make([]int, len(t.degTotals))
	for n := range depths {
		if t.deg(n) >= len(census) {
			return errIndexDrift(n.name(), "degree beyond census")
		}
		census[t.deg(n)]++
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
					if !t.store.bound(slot) {
						return errIndexDrift("slab", "unbound slot in bucket")
					}
					n := t.store.at(slot)
					if _, dup := filed[n]; dup {
						return errIndexDrift(n.name(), "filed twice")
					}
					filed[n] = depth
					if t.deg(n) != deg {
						return errIndexDrift(n.name(), "wrong degree bucket")
					}
					if int(t.store.depth[slot]) != depth {
						return errIndexDrift(n.name(), "stale depth")
					}
					if t.store.pos[slot] != int32(i) {
						return errIndexDrift(n.name(), "heap position mirror drift")
					}
					if (t.freeSlots(n) > 0) != hasFree {
						return errIndexDrift(n.name(), "wrong half of the full/free partition")
					}
					if i > 0 && t.store.lessSlot(slot, h[(i-1)/2]) {
						return errIndexDrift(n.name(), "heap order violated")
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
			return errIndexDrift(n.name(), "missing or misfiled")
		}
	}
	return t.validateSlab(depths)
}

// validateSlab recounts the slab and SoA bookkeeping (slab.go): the free
// list against the slot bindings, and every dense column against what it
// shadows.
func (t *Tree) validateSlab(depths map[*Node]int) error {
	s := t.store
	total := s.slots()
	for _, l := range []int{len(s.deg), len(s.cap), len(s.eff), len(s.kids),
		len(s.depth), len(s.pos), len(s.rootPos), len(s.edge),
		len(s.stale), len(s.tracked)} {
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
		if s.bound(slot) {
			return errIndexDrift(s.at(slot).name(), "bound slot on free list")
		}
	}
	for slot := range int32(total) {
		n := s.at(slot)
		if s.stale[slot] {
			return errIndexDrift("slab", "heap key left unsettled")
		}
		if n.slot == 0 {
			if !onFree[slot] {
				return errIndexDrift("slab", "unbound slot missing from free list")
			}
			if s.pos[slot] != -1 || s.rootPos[slot] != -1 {
				return errIndexDrift("slab", "unbound slot keeps a position")
			}
			if n.owner != nil {
				return errIndexDrift("slab", "unbound slot keeps an owner")
			}
			continue
		}
		if n.slot != slot+1 {
			return errIndexDrift(n.name(), "slot binding mismatch")
		}
		if n.owner == nil {
			return errIndexDrift("slab", "bound slot has no owner")
		}
		// The root walk proved every root's mirror; nobody else has one.
		if (n.Parent != nil || !s.filed(slot)) && s.rootPos[slot] != -1 {
			return errIndexDrift(n.name(), "non-root keeps a root position")
		}
		// The bucket walk proved every attached node's heap position.
		if _, attached := depths[n]; s.filed(slot) && !attached {
			return errIndexDrift(n.name(), "unattached node keeps a heap position")
		}
		if !s.tracked[slot] {
			continue
		}
		if s.cap[slot] != n.owner.Info.OutboundMbps {
			return errIndexDrift(n.name(), "capacity column off its record")
		}
		if s.kids[slot] != int32(len(n.Children)) {
			return errIndexDrift(n.name(), "child-count mirror drift")
		}
		if s.eff[slot] != n.EffE2E {
			return errIndexDrift(n.name(), "effective-delay mirror drift")
		}
	}
	return nil
}

// name names a node in validation errors; a node with no owner record (a
// free slot's, or a corrupted one) has no viewer ID to give.
func (n *Node) name() string {
	if n.owner == nil {
		return "(ownerless node)"
	}
	return string(n.owner.Info.ID)
}

// validateRecords checks registration and the worklist. The worklist is
// empty and no record is flagged pending: every operation drains it or
// clears it on exhaustion. Every record is filed under its own ID; an
// admitted record's group is the registered group of its key, and each
// registered group's member count equals its admitted records; a rejected
// record, which may keep a retired group, holds no node.
func (m *Manager) validateRecords() error {
	if len(m.pendingQ) != 0 || m.pendingHead != 0 {
		return errWorklist(len(m.pendingQ) - m.pendingHead)
	}
	members := make(map[*Group]int, len(m.groups))
	for id, v := range m.viewers {
		switch {
		case v.Info.ID != id:
			return errRecordDrift(string(id), "filed under another viewer's ID")
		case v.pending:
			return errRecordDrift(string(id), "flagged pending outside an operation")
		case v.Rejected:
			if len(v.Nodes) != 0 {
				return errRecordDrift(string(id), "rejected but holds a node")
			}
		case m.groups[v.Group.Key] != v.Group:
			return errRecordDrift(string(id), "admitted into an unregistered group")
		default:
			members[v.Group]++
		}
	}
	for _, g := range m.groups {
		if g.Members != members[g] {
			return errCounterDrift("group members", g.Members, members[g])
		}
	}
	return nil
}

// validateOwners checks g.Trees[i] against the viewer records: every bound
// slot's node carries the tree's position as its stream index, and its
// owner is a routed, admitted record of the group whose Nodes hold it; no
// bound node sits beyond the d_max layer. Every attached node is bound, so
// this also shows that the tree check's propagation lookups name only
// routed viewers, which is why Validate runs it first.
func (m *Manager) validateOwners(g *Group, i int, t *Tree) error {
	maxLayer := m.params.Hierarchy.MaxLayer()
	for slot := range int32(t.store.slots()) {
		if !t.store.bound(slot) {
			continue
		}
		n := t.store.at(slot)
		o := n.owner
		if o == nil || int(n.stream) != i || o.Rejected || o.Group != g ||
			m.viewers[o.Info.ID] != o || !slices.Contains(o.Nodes, n) {
			return errViewerTreeMismatch(n.name(), t.Stream.ID.String())
		}
		if n.Layer > maxLayer {
			return errDelayBound(n.name(), n.Layer, maxLayer)
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
		for slot := range int32(s.slots()) {
			if n := s.at(slot); n.slot != 0 || n.owner != nil {
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
			fn(t.store.at(int32(slot)))
		}
	}
}
