package overlay

import (
	"sort"
	"time"
)

// Tree is the dissemination tree of one stream within one view group. The
// (virtual) root is the CDN: every node with a nil parent receives the
// stream directly from a CDN edge server at delay Δ.
//
// The tree keeps three incrementally-maintained indexes so the admission
// path (Algorithm 1) never scans or sorts the whole structure:
//
//   - free: the total unused out-degree across all known nodes, making
//     FreeSlots an O(1) read;
//   - degTotals: the out-degree census of the attached nodes, bounding
//     HasSupplyFor's displacement check;
//   - levels: per-depth out-degree buckets, each ordered under the
//     candidate order (index.go), that findPosition walks instead of
//     BFS-sorting every level.
//
// A delay refresh that moves a filed node's EffE2E, one of its heap keys,
// does not sift the node there and then: it marks the slot stale (slab.go),
// and settle writes the key and sifts the node once. Inside one κ drain the
// same node moves several times, and only its last value is sifted. A filed
// node's key (store.eff) is written only by settle, one node at a time and
// each followed by its sift, so every heap stays valid under its keys at all
// times. settle runs before findPosition reads the level index and before
// any node is filed or unfiled (indexSubtree, unindexSubtree), so every
// position search sees the current keys and the heap minimum it returns is
// the one the paper-literal scan elects. The other structural write, the
// half move in linkChild/unlinkChild (adjustFree), needs no settle of its
// own: a child is linked or unlinked only right after findPosition or
// unindexSubtree settled, with no refresh in between, so the stale queue is
// empty there. HasSupplyFor reads only the degree census and bucket
// minimum capacities, which no delay key changes, so it does not settle.
// Every exported method returns with the tree settled; the manager drives
// its trees through the unexported setLayer and refreshFull, which leave
// the settle to the end of its operation (Group.settle), so between
// operations every key equals its node's EffE2E.
type Tree struct {
	Stream treeStream
	// roots are the direct CDN children; store.rootPos mirrors each one's
	// index so replacing or removing a root needs no search.
	roots  []*Node
	prop   PropFunc
	params Params

	// size counts the tracked nodes (store.tracked): attached ones and
	// victims whose recovery is in flight.
	size int
	// free is Σ FreeSlots over the tracked nodes.
	free int
	// degTotals counts attached nodes per out-degree.
	degTotals []int
	// levels indexes attached nodes by depth; trailing entries may be
	// empty after the tree shrinks.
	levels []*levelIndex

	// store is the node slab and the SoA backing of the admission-hot
	// fields (slab.go). Every tracked node is bound to a store slot.
	store *nodeStore

	// changed is the reusable scratch behind refreshDelays; its returned
	// slices are valid until the next delay refresh.
	changed []*Node
	// fifoQ is the reusable BFS queue of InsertFIFO.
	fifoQ []*Node
	// alwaysWalk turns every refresh into the full walk the tree made before
	// its shortcuts: setLayer never short-circuits, refreshNode never stops
	// early and re-keys a moved node at once instead of deferring it to
	// settle, and every edge is re-derived from prop. Only tests set it, to
	// show the shortcuts change no outcome.
	alwaysWalk bool
}

// treeStream is the slice of stream metadata the tree needs.
type treeStream struct {
	ID          streamID
	BitrateMbps float64
	FrameRate   float64
}

type streamID = modelStreamID

// newTree builds an empty tree for the stream on the given node store, a
// fresh one or a spare whose slots are all free.
func newTree(id streamID, bitrate, frameRate float64, store *nodeStore, prop PropFunc, params Params) *Tree {
	return &Tree{
		Stream: treeStream{ID: id, BitrateMbps: bitrate, FrameRate: frameRate},
		prop:   prop,
		params: params,
		store:  store,
	}
}

// Size returns the number of nodes the tree tracks: attached ones and
// victims whose recovery is in flight.
func (t *Tree) Size() int { return t.size }

// Roots returns the direct CDN children.
func (t *Tree) Roots() []*Node { return t.roots }

// FreeSlots returns the unused out-degree across all nodes: the P2P supply
// available without displacing anyone. O(1) — the counter is maintained by
// every attach, detach, and displacement.
func (t *Tree) FreeSlots() int { return t.free }

// HasSupplyFor reports whether the P2P layer can serve one more child:
// either a free slot exists, or a joining viewer with the given out-degree
// and capacity could displace an attached node (degree push-down always
// nets one extra position in that case). The free-slot case is an O(1)
// counter read; the displacement case consults the degree census and, on an
// exact-degree tie, one bucket minimum per level.
func (t *Tree) HasSupplyFor(outDeg int, outCap float64) bool {
	if t.free > 0 {
		return true
	}
	if outDeg < 1 {
		return false // no slot left to adopt a displaced node
	}
	for d := 0; d < outDeg && d < len(t.degTotals); d++ {
		if t.degTotals[d] > 0 {
			return true
		}
	}
	if outDeg < len(t.degTotals) && t.degTotals[outDeg] > 0 {
		for _, li := range t.levels {
			if li.count == 0 {
				break
			}
			if li.hasWeakerCap(t.store, outDeg, outCap) {
				return true
			}
		}
	}
	return false
}

// beats implements the degree push-down comparison for a joiner with the
// given spare slots against a candidate of degree zDeg and capacity zCap: a
// virtual empty slot (zDeg −1) accepts anyone; a real node z is displaced
// when the joiner has a slot left to adopt it and either oDeg_u > oDeg_z,
// or the degrees tie and C^u_obw > C^z_obw.
func beats(outDeg, freeSlots int, outCap float64, zDeg int, zCap float64) bool {
	if zDeg == -1 {
		return outDeg >= 0
	}
	if freeSlots < 1 {
		return false // nowhere to put the displaced node
	}
	if outDeg != zDeg {
		return outDeg > zDeg
	}
	return outCap > zCap
}

// Insert runs Algorithm 1 (degree push down) to place u in the tree. It
// looks level by level for a position; at each level candidates rank in
// ascending out-degree order, with empty child slots acting as virtual nodes
// of out-degree −1. The first candidate u beats is replaced: u takes its
// position and the displaced node becomes u's child (keeping its own
// subtree). Insert reports placed=false when u beats no candidate, in which
// case the caller provisions the stream from the CDN or rejects it
// (§IV-B2). displaced is the real node pushed down, if any; its subtree's
// delays were recomputed and its viewers need a stream-subscription pass.
//
// Insert refuses a node the tree already tracks. It does not look for
// another node of the same viewer: one node per viewer per tree is the
// manager's invariant (a second Join fails with ErrViewerExists), and
// validate's duplicate check enforces it.
func (t *Tree) Insert(u *Node) (placed bool, displaced *Node) {
	if t.tracks(u) {
		return false, nil
	}
	return t.place(u)
}

// Reattach re-runs degree push down for a node that is already known to the
// tree but currently detached (a victim keeping its subtree). The position
// search only reaches attached nodes, so the victim's own subtree is never
// a candidate.
func (t *Tree) Reattach(u *Node) (placed bool, displaced *Node) {
	return t.place(u)
}

// place resolves a position for u and applies it.
func (t *Tree) place(u *Node) (placed bool, displaced *Node) {
	victim, parent := t.findPosition(u)
	switch {
	case victim != nil:
		t.displace(victim, u)
		return true, victim
	case parent != nil:
		t.attachUnder(parent, u)
		return true, nil
	default:
		return false, nil
	}
}

// findPosition walks the level index looking for the first position u can
// take, in exactly the order the paper's BFS visits candidates: at each
// level, first the weakest real node (displacement), then — via the next
// level's virtual empty slots — the best free slot of the level. Levels
// whose index rules out both are skipped without visiting a single node.
//
// It returns the real node to displace, or the parent with the free slot to
// attach under (victim == nil), or neither when u beats no candidate.
func (t *Tree) findPosition(u *Node) (victim, parent *Node) {
	t.settle()
	canDisplace := t.freeSlots(u) > 0
	deg, cap := t.deg(u), t.store.cap[u.slot-1]
	for _, li := range t.levels {
		if li.count == 0 {
			break // levels are contiguous: an empty one ends the tree
		}
		if canDisplace {
			if z := li.weakest(t.store, deg, cap); z != nil {
				return z, nil
			}
		}
		if li.free > 0 {
			if p := li.bestFree(t.store); p != nil {
				return nil, p
			}
		}
	}
	return nil, nil
}

// findPositionScan is the paper-literal reference implementation of the
// position search: BFS level by level, sorting each level with virtual
// empty slots of out-degree −1, returning the first candidate u beats. It
// is retained verbatim (allocations and all) as the oracle the differential
// tests compare findPosition against; production code never calls it.
func (t *Tree) findPositionScan(u *Node) (victim, parent *Node) {
	me := t.candidate(u)
	free := t.freeSlots(u)
	level := make([]scanCand, len(t.roots))
	for i, r := range t.roots {
		level[i] = t.candidate(r)
	}
	for len(level) > 0 {
		sortCandidates(level)
		for _, z := range level {
			if beats(me.deg, free, me.cap, z.deg, z.cap) {
				if z.node == nil {
					return nil, z.parent
				}
				return z.node, nil
			}
		}
		var next []scanCand
		for _, z := range level {
			if z.node == nil {
				continue
			}
			for _, c := range z.node.Children {
				next = append(next, t.candidate(c))
			}
			if t.freeSlots(z.node) > 0 {
				// One virtual empty slot per parent is enough:
				// attaching consumes exactly one.
				next = append(next, scanCand{parent: z.node, deg: -1})
			}
		}
		level = next
	}
	return nil, nil
}

// scanCand is one candidate of the reference scan with its sort key: a real
// node, or — node nil — the virtual empty slot under parent, of out-degree
// −1 and zero capacity, delay and ID.
type scanCand struct {
	node, parent *Node
	deg          int
	cap          float64
	eff          time.Duration
	id           viewerID
}

// candidate keys a real node for the reference scan.
func (t *Tree) candidate(n *Node) scanCand {
	return scanCand{node: n, deg: t.deg(n), cap: t.store.cap[n.slot-1], eff: n.EffE2E, id: n.Viewer()}
}

// sortCandidates orders a level by Algorithm 1's candidate order: ascending
// out-degree, then out capacity, then descending effective delay (prefer
// displacing high-delay nodes), then viewer ID. Viewer IDs are unique, so
// among real nodes the order is total, and the minima the admission index
// returns under its slot-level restriction (nodeStore.lessSlot) do not
// depend on filing order. The sort is stable so virtual slots keep their
// parents' order. Only the reference scan still sorts.
func sortCandidates(level []scanCand) {
	sort.SliceStable(level, func(i, j int) bool {
		a, b := level[i], level[j]
		if a.deg != b.deg {
			return a.deg < b.deg
		}
		if a.cap != b.cap {
			return a.cap < b.cap
		}
		if a.eff != b.eff {
			return a.eff > b.eff
		}
		return a.id < b.id
	})
}

// attachUnder puts u into one of parent's free child slots. Like every
// attach primitive it refreshes the moved subtree's delays before filing it,
// so each node enters its heap with its final key instead of being re-keyed
// a moment later.
func (t *Tree) attachUnder(parent, u *Node) {
	t.trackNode(u)
	depth := t.depthOf(parent)
	t.linkChild(parent, u)
	t.refreshDelays(u)
	t.indexSubtree(u, depth+1)
}

// displace puts u in z's position: z and its subtree move one level down as
// u's child. u inherits z's parent, which forms u's edge here; linkChild
// forms z's.
func (t *Tree) displace(z, u *Node) {
	depth := t.depthOf(z)
	t.unindexSubtree(z)
	t.trackNode(u) // binds u's slot, which the root mirror and edge need
	u.Parent = z.Parent
	if z.Parent == nil {
		rp := t.store.rootPos
		i := rp[z.slot-1]
		t.roots[i] = u
		rp[u.slot-1], rp[z.slot-1] = i, -1
	} else {
		t.store.edge[u.slot-1] = t.prop(z.Parent.Viewer(), u.Viewer())
		for i, c := range z.Parent.Children {
			if c == z {
				z.Parent.Children[i] = u
				break
			}
		}
	}
	z.Parent = nil
	t.linkChild(u, z)
	t.refreshDelays(u)
	t.indexSubtree(u, depth)
}

// AttachToCDN places u as a direct child of the CDN (a tree root). The
// caller is responsible for CDN capacity accounting. It is safe for both
// fresh nodes and detached victims.
func (t *Tree) AttachToCDN(u *Node) {
	u.Parent = nil
	t.trackNode(u)
	t.addRoot(u)
	t.refreshDelays(u)
	t.indexSubtree(u, 0)
}

// MoveToCDN detaches n from its current parent, keeping its subtree, and
// re-roots it at the CDN. The caller must have reserved CDN capacity first.
// If n was already a root this only refreshes delays.
func (t *Tree) MoveToCDN(n *Node) {
	if n.Parent == nil {
		t.refreshDelays(n)
		t.settle()
		return
	}
	t.unindexSubtree(n)
	t.unlinkChild(n)
	t.addRoot(n)
	t.refreshDelays(n)
	t.indexSubtree(n, 0)
}

// Detach removes u from the tree and returns its children as victims, each
// detached with its own subtree intact. The caller re-attaches victims
// (victim recovery, §VI) or drops them. The victims slice is u's own child
// slice, handed over to the caller.
func (t *Tree) Detach(u *Node) []*Node {
	t.unindexSubtree(u)
	if u.Parent == nil {
		t.removeRoot(u)
	} else {
		t.unlinkChild(u)
	}
	t.untrackNode(u)
	victims := u.Children
	u.Children = nil
	t.store.kids[u.slot-1] = 0
	for _, v := range victims {
		v.Parent = nil
	}
	return victims
}

// Orphan drops a detached victim from the tree's bookkeeping entirely,
// detaching and returning its children (each keeping its own subtree) for
// recovery. It is the cascade-drop primitive: the victim must already be
// unlinked from any parent.
func (t *Tree) Orphan(victim *Node) []*Node {
	children := victim.Children
	victim.Children = nil
	if victim.slot != 0 {
		t.store.kids[victim.slot-1] = 0
	}
	if t.tracks(victim) {
		t.free += len(children) // the victim's slots all came free…
	}
	t.untrackNode(victim) // …and leave the census with it
	for _, c := range children {
		c.Parent = nil
	}
	return children
}

// trackNode flags a node tracked and enters it into the free-slot counter.
// Re-tracking a victim that was never untracked is a no-op.
func (t *Tree) trackNode(n *Node) {
	if t.tracks(n) {
		return
	}
	t.store.tracked[n.slot-1] = true
	t.size++
	t.free += t.freeSlots(n)
}

// untrackNode clears a node's tracked flag and takes it out of the
// free-slot counter. The slot stays bound until Recycle.
func (t *Tree) untrackNode(n *Node) {
	if !t.tracks(n) {
		return
	}
	t.store.tracked[n.slot-1] = false
	t.size--
	t.free -= t.freeSlots(n)
}

// linkChild appends u to p's children and forms u's edge. p must be
// tracked and have a free slot, and u must be bound; u's own slot census is
// unaffected. The tree must be settled: adjustFree sifts p by the heap key
// it is filed under, and a stale p would be sifted in the wrong half.
func (t *Tree) linkChild(p, u *Node) {
	p.Children = append(p.Children, u)
	u.Parent = p
	t.store.edge[u.slot-1] = t.prop(p.Viewer(), u.Viewer())
	t.free--
	ps := p.slot - 1
	t.store.kids[ps]++
	if t.store.filed(ps) && t.store.freeSlotsAt(ps) == 0 {
		t.levels[t.store.depth[ps]].adjustFree(t.store, p)
	}
}

// unlinkChild removes u from its parent's child list by swap-delete — O(1)
// instead of the former O(children) shift — and returns the freed slot to
// the census. Like linkChild it needs a settled tree.
func (t *Tree) unlinkChild(u *Node) {
	p := u.Parent
	cs := p.Children
	for i, c := range cs {
		if c == u {
			last := len(cs) - 1
			cs[i] = cs[last]
			cs[last] = nil
			p.Children = cs[:last]
			break
		}
	}
	u.Parent = nil
	t.free++
	ps := p.slot - 1
	t.store.kids[ps]--
	if t.store.filed(ps) && t.store.freeSlotsAt(ps) == 1 {
		t.levels[t.store.depth[ps]].adjustFree(t.store, p)
	}
}

// addRoot appends a tracked node to the root list.
func (t *Tree) addRoot(u *Node) {
	t.store.rootPos[u.slot-1] = int32(len(t.roots))
	t.roots = append(t.roots, u)
}

// removeRoot drops u from the root list by swap-delete, found through its
// position mirror.
func (t *Tree) removeRoot(u *Node) {
	rp, rs := t.store.rootPos, t.roots
	i, last := rp[u.slot-1], len(rs)-1
	rs[i] = rs[last]
	rp[rs[i].slot-1] = i
	rs[last] = nil
	t.roots = rs[:last]
	rp[u.slot-1] = -1
}

// levelFor returns (growing if needed) the index of one depth.
func (t *Tree) levelFor(depth int) *levelIndex {
	for len(t.levels) <= depth {
		t.levels = append(t.levels, &levelIndex{})
	}
	return t.levels[depth]
}

// indexSubtree files n and its subtree into the level index from the given
// depth and updates the degree census.
func (t *Tree) indexSubtree(n *Node, depth int) {
	t.settle()
	t.store.depth[n.slot-1] = int32(depth)
	t.levelFor(depth).add(t.store, n)
	deg := t.deg(n)
	for len(t.degTotals) <= deg {
		t.degTotals = append(t.degTotals, 0)
	}
	t.degTotals[deg]++
	for _, c := range n.Children {
		t.indexSubtree(c, depth+1)
	}
}

// unindexSubtree removes n and its subtree from the level index and the
// degree census. Settling first means no unfiled node is left stale.
func (t *Tree) unindexSubtree(n *Node) {
	t.settle()
	t.levels[t.depthOf(n)].remove(t.store, n)
	t.degTotals[t.deg(n)]--
	for _, c := range n.Children {
		t.unindexSubtree(c)
	}
}

// settle writes the heap keys the delay refreshes deferred: each stale
// slot's key takes its node's EffE2E and the node is sifted once, or not at
// all when its delay came back to the key it is filed under. Keys are
// written one node at a time, each followed by its sift, so the heaps are
// valid under their keys throughout. A stale slot is always filed: its
// subtree is unfiled only by unindexSubtree, which settles first.
func (t *Tree) settle() {
	s := t.store
	for _, slot := range s.staleQ {
		s.stale[slot] = false
		if eff := s.at(slot).EffE2E; s.eff[slot] != eff {
			s.eff[slot] = eff
			t.levels[s.depth[slot]].rekey(s, slot)
		}
	}
	s.staleQ = s.staleQ[:0]
}

// refreshDelays recomputes MinE2E, Layer, and EffE2E for n and the part of
// its subtree whose inputs moved. The assigned layer never drops below the
// minimum implied by the path, and a node already pushed down (Layer >
// minimum) keeps its deeper layer: the stream-subscription pass decides
// moves, not the tree. It returns every node whose delay state changed so
// that the manager can re-run stream subscription for the affected viewers
// — silently updated descendants are exactly how κ-bound violations would
// otherwise slip through. The returned slice is scratch owned by the tree,
// valid until the next refresh.
//
// The walk always visits n's children, since one of them may have just
// gained its edge (displace links the displaced node under n). Below them it
// descends only where a node's EffE2E changed: a node's delay state is
// derived from its parent's EffE2E, its edge and its own Layer, so under a
// node whose EffE2E held still every descendant already holds the value the
// walk would recompute (setLayer states the fixpoint argument).
func (t *Tree) refreshDelays(n *Node) (changed []*Node) {
	return t.walkDelays(n, t.alwaysWalk)
}

// refreshFull is the full walk: it re-derives every edge in n's subtree
// from prop and refreshes every node, stopping nowhere. RefreshAll needs it
// because prop itself may have drifted (§VI's periodic adaptation, a
// DelayShift), and Manager.Restore because it pins layers without walking.
func (t *Tree) refreshFull(n *Node) (changed []*Node) {
	return t.walkDelays(n, true)
}

func (t *Tree) walkDelays(n *Node, full bool) []*Node {
	t.changed = t.changed[:0]
	t.refreshNode(n, full, true)
	return t.changed
}

// refreshNode re-derives one node's delay state and walks on: into every
// child when full or descend is set, otherwise only if its EffE2E moved.
func (t *Tree) refreshNode(n *Node, full, descend bool) {
	h := t.params.Hierarchy
	slot := n.slot - 1
	oldMin, oldLayer, oldEff := n.MinE2E, n.Layer, n.EffE2E
	if n.Parent == nil {
		n.MinE2E = h.Delta
	} else {
		if full {
			t.store.edge[slot] = t.prop(n.Parent.Viewer(), n.Viewer())
		}
		n.MinE2E = n.Parent.EffE2E + t.store.edge[slot] + t.params.Proc
	}
	minLayer := h.LayerOf(n.MinE2E)
	if n.Layer < minLayer {
		n.Layer = minLayer
	}
	n.EffE2E = n.MinE2E
	// A pushed-down viewer receives at its position inside the
	// layer: ℜ=τr (offset 1) pins it to the top edge, smaller
	// offsets sit deeper in the layer.
	pos := h.LayerDelayLow(n.Layer) +
		time.Duration((1-t.params.offsetFrac())*float64(h.Tau()))
	if n.EffE2E < pos {
		n.EffE2E = pos
	}
	if s := t.store; s.eff[slot] != n.EffE2E {
		// EffE2E is a key of the node's index heap. An unfiled node's
		// key is written here; a filed node's waits for settle.
		switch {
		case !s.filed(slot):
			s.eff[slot] = n.EffE2E
		case t.alwaysWalk:
			s.eff[slot] = n.EffE2E
			t.levels[s.depth[slot]].rekey(s, slot)
		case !s.stale[slot]:
			s.stale[slot] = true
			s.staleQ = append(s.staleQ, slot)
		}
	}
	if n.MinE2E != oldMin || n.Layer != oldLayer || n.EffE2E != oldEff {
		t.changed = append(t.changed, n)
	}
	if !full && !descend && n.EffE2E == oldEff {
		return // early stop: nothing below can move
	}
	for _, c := range n.Children {
		t.refreshNode(c, full, false)
	}
}

// setLayer assigns the node's delay layer (from stream subscription) and
// propagates the resulting effective-delay change through the subtree,
// returning the nodes whose delay state changed (tree-owned scratch, valid
// until the next refresh). The re-keys of the filed nodes it moves stay
// pending (settle): the next findPosition settles them, and the manager
// settles at the end of its operation; a caller that validates the tree
// in between settles first.
//
// When the clamped layer is the one the node already has there is nothing
// to propagate and no walk is made. refreshNode derives a node's delay
// state from exactly four inputs — its parent link, the parent's EffE2E,
// its own Layer, and its edge (the cached prop of its parent link) — and is
// idempotent. Every write to them is followed, before the tree hands
// control back, by a refresh of the node it feeds: linkChild and displace
// form edges only inside attachUnder and displace, which, like AttachToCDN
// and MoveToCDN, refresh the subtree they re-parent, always including the
// walk root's children (where displace's new edge sits); refreshNode visits
// the children of any node whose EffE2E it moves; and Layer is written only
// here (walk follows), by refreshNode's own minimum-layer ratchet, and by
// Manager.Restore, which runs the full walk from every root after pinning
// layers. Detach and Orphan do cut victims loose unrefreshed, but a victim
// is re-placed through one of the attach primitives, or dropped, before the
// manager runs another subscription pass. So whenever setLayer is called
// every attached subtree is a fixpoint of refreshNode for the edges it
// holds, and whenever a walk starts everything below the walk root's
// children is. Two shortcuts rest on that: re-walking a subtree with an unchanged Layer
// would recompute every delay to the value it already holds and report no
// change, so setLayer skips it; and below a node whose EffE2E a walk left
// unchanged nothing can move, so refreshNode stops there. A drift in prop
// itself is not a tree mutation and reaches no cached edge; picking it up
// is RefreshAll's job (§VI's periodic adaptation), whose full walk
// re-derives every edge and stops nowhere.
func (t *Tree) setLayer(n *Node, layer int) []*Node {
	min := t.params.Hierarchy.LayerOf(n.MinE2E)
	if layer < min {
		layer = min
	}
	if layer == n.Layer && !t.alwaysWalk {
		return nil
	}
	n.Layer = layer
	return t.refreshDelays(n)
}

// Walk visits every attached node (preorder from each root).
func (t *Tree) Walk(fn func(*Node)) {
	var rec func(*Node)
	rec = func(n *Node) {
		fn(n)
		for _, c := range n.Children {
			rec(c)
		}
	}
	for _, r := range t.roots {
		rec(r)
	}
}

// Depth returns the maximum node depth (roots are depth 1); 0 for empty.
// The level index makes it a counter walk.
func (t *Tree) Depth() int {
	for i, li := range t.levels {
		if li.count == 0 {
			return i
		}
	}
	return len(t.levels)
}

// viewerID aliases keep tree.go readable without importing model twice.
type viewerID = modelViewerID

// InsertFIFO attaches u to the first free slot found in BFS order, without
// any displacement — the no-push-down strawman the ablations compare
// against. Returns false when the tree has no free slot or already tracks u
// (like Insert, it leaves one node per viewer to the manager).
func (t *Tree) InsertFIFO(u *Node) bool {
	if t.tracks(u) {
		return false
	}
	q := t.fifoQ[:0]
	q = append(q, t.roots...)
	for head := 0; head < len(q); head++ {
		z := q[head]
		if t.freeSlots(z) > 0 {
			t.fifoQ = q[:0]
			t.attachUnder(z, u)
			return true
		}
		q = append(q, z.Children...)
	}
	t.fifoQ = q[:0]
	return false
}
