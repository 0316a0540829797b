package overlay

import "time"

// The node slab: per-tree arena allocation for overlay nodes plus the SoA
// (struct-of-arrays) mirrors of the admission-hot fields.
//
// At production scale the overlay's binding constraint is per-viewer memory
// and GC pressure, not cycles: a million live nodes allocated one-by-one are
// a million GC-scanned objects scattered across the heap, and every
// findPosition bucket walk chases pointers through them. The store fixes
// both ends:
//
//   - nodes are carved out of fixed-size blocks ([][]Node) with a LIFO
//     free-slot stack, so churn recycles slots instead of hitting the
//     allocator, and node storage is cache-contiguous;
//   - the fields the admission path reads per candidate — out-degree, out
//     capacity, effective delay, child count, depth — live in dense
//     arrays indexed by slot (out-degree and out capacity only there), next to the node's position in the
//     level-index heap it is filed in and in the tree's root list, so heap
//     sifts compare inside consecutive memory, never dereference a Node
//     short of a full (capacity, delay) tie, and removing a node from
//     either structure needs no search;
//   - the delay refresh reads each node's tree edge, d_prop(parent, node),
//     from a dense column written once where the edge forms, instead of
//     calling the propagation function per edge per refresh;
//   - tree membership is a per-slot flag plus a counter, so tracking,
//     untracking and the duplicate and recycle guards index by slot rather
//     than hashing viewer IDs;
//   - each node points at the viewer record that owns it (Node.owner), so
//     the subscription worklist (subscribe.go) and a cascade drop go from a
//     node to its viewer without hashing the viewer ID or searching the
//     groups for the tree;
//   - a store outlives its tree: when an emptied view group is retired
//     (Manager.retireGroup), each of its trees whose slots are all free
//     hands its store to the manager's spare list, and the next tree the
//     manager creates takes it (reset) instead of growing a new one, so a
//     view that drains to zero and ramps again reuses its blocks, columns
//     and free stack rather than reallocating them.
//
// Every node is slab-born (Tree.NewNode), so the node of slot s is always
// the block entry of s, and a slot is bound exactly when that entry's slot
// field is set. A slot is returned only by an explicit Tree.Recycle once the
// manager has permanently removed the node; Detach/Orphan leave the binding
// in place because detached victims are still live (recovery reads them,
// tests inspect them).

const (
	slabBlockShift = 8
	slabBlockSize  = 1 << slabBlockShift // nodes per block
	slabBlockMask  = slabBlockSize - 1
)

// nodeStore is the slab allocator and SoA index backing of one tree. All
// per-slot arrays are indexed by slot (0-based); Node.slot stores slot+1 so
// the zero value means "unbound".
type nodeStore struct {
	// blocks hold the nodes; the node of slot s lives at
	// blocks[s>>slabBlockShift][s&slabBlockMask] (at).
	blocks [][]Node
	// freeList is the LIFO stack of unbound slots.
	freeList []int32

	// deg and cap are the node's out-degree (its record's outbound share
	// for the stream) and out capacity (the record's C^u_obw, the degree
	// push-down tie-breaker): the hot copies of those record facts and the
	// only ones the tree keeps, written once by NewNode. The other columns
	// are dense mirrors of admission-hot node state, maintained by the
	// tree's attach/detach/refresh primitives.
	deg   []int32
	cap   []float64
	eff   []time.Duration // EffE2E
	kids  []int32         // len(Children)
	depth []int32         // level-index depth (valid while filed)
	// pos is the node's index in the level-index heap it is filed in
	// (index.go), -1 while it is in none; rootPos is its index in
	// Tree.roots, -1 for a non-root. They are the position mirrors that
	// make heap removal, re-keying and root removal search-free.
	pos, rootPos []int32
	// edge is prop(parent, node), the d_prop of the node's tree edge, valid
	// while the node has a parent. It is written where the edge forms
	// (linkChild, displace) and re-derived only by the full walks
	// (Tree.refreshFull); refreshNode reads it.
	edge []time.Duration
	// stale marks the filed slots whose EffE2E moved since their heap key
	// (eff) was written; staleQ lists them in the order they went stale.
	// Tree.settle writes and sifts them and empties the queue (tree.go).
	stale  []bool
	staleQ []int32
	// tracked marks the slots whose node the tree tracks: every attached
	// node plus victims whose recovery is in flight. Tree.size counts them.
	tracked []bool
}

func newNodeStore() *nodeStore { return &nodeStore{} }

// grow appends one block and extends every per-slot array in step.
func (s *nodeStore) grow() {
	base := int32(s.slots())
	s.blocks = append(s.blocks, make([]Node, slabBlockSize))
	s.deg = append(s.deg, make([]int32, slabBlockSize)...)
	s.cap = append(s.cap, make([]float64, slabBlockSize)...)
	s.eff = append(s.eff, make([]time.Duration, slabBlockSize)...)
	s.kids = append(s.kids, make([]int32, slabBlockSize)...)
	s.depth = append(s.depth, make([]int32, slabBlockSize)...)
	s.pos = append(s.pos, make([]int32, slabBlockSize)...)
	s.rootPos = append(s.rootPos, make([]int32, slabBlockSize)...)
	s.edge = append(s.edge, make([]time.Duration, slabBlockSize)...)
	s.stale = append(s.stale, make([]bool, slabBlockSize)...)
	s.tracked = append(s.tracked, make([]bool, slabBlockSize)...)
	// LIFO: push in reverse so low slots are handed out first. An unbound
	// slot holds no position; release keeps it that way.
	for i := int32(slabBlockSize) - 1; i >= 0; i-- {
		s.freeList = append(s.freeList, base+i)
		s.pos[base+i], s.rootPos[base+i] = -1, -1
	}
}

// reset readies a store whose slots are all free for a new tree: the free
// stack is rebuilt so slots are handed out low-first, exactly as grow stacks
// them, so a reused store assigns every slot a fresh one would. release has
// already cleared every per-slot column, so nothing else is left to reset.
func (s *nodeStore) reset() {
	top := int32(len(s.freeList)) - 1
	for i := range s.freeList {
		s.freeList[i] = top - int32(i)
	}
}

// slots is the store's slot capacity.
func (s *nodeStore) slots() int { return len(s.blocks) * slabBlockSize }

// at returns the node of a slot, bound or not.
func (s *nodeStore) at(slot int32) *Node {
	return &s.blocks[slot>>slabBlockShift][slot&slabBlockMask]
}

// bound reports whether a slot holds a node: release zeroes the node, so a
// free slot's entry has no slot binding.
func (s *nodeStore) bound(slot int32) bool { return s.at(slot).slot != 0 }

// allFree reports whether no slot of the store is bound.
func (s *nodeStore) allFree() bool { return len(s.freeList) == s.slots() }

// popSlot takes a free slot, growing the slab if none is left.
func (s *nodeStore) popSlot() int32 {
	if len(s.freeList) == 0 {
		s.grow()
	}
	slot := s.freeList[len(s.freeList)-1]
	s.freeList = s.freeList[:len(s.freeList)-1]
	return slot
}

// release unbinds a node and pushes its slot back on the free stack. The
// node is zeroed, so the next tenant starts clean and the previous tenant's
// pointers, its owner record's included, stop pinning memory.
func (s *nodeStore) release(n *Node) {
	if n.slot == 0 {
		return
	}
	slot := n.slot - 1
	s.deg[slot], s.cap[slot] = 0, 0
	s.eff[slot], s.kids[slot], s.depth[slot] = 0, 0, 0
	s.pos[slot], s.rootPos[slot] = -1, -1
	s.edge[slot], s.tracked[slot] = 0, false
	*n = Node{} // clears n.slot too
	s.freeList = append(s.freeList, slot)
}

// lessSlot is the candidate order (sortCandidates) restricted to one
// out-degree bucket, whose members share their degree by construction:
// ascending out capacity, then descending effective delay, then viewer ID.
// The first two compares stay inside the dense arrays; the nodes' records
// are dereferenced only on a full tie.
func (s *nodeStore) lessSlot(a, b int32) bool {
	if s.cap[a] != s.cap[b] {
		return s.cap[a] < s.cap[b]
	}
	if s.eff[a] != s.eff[b] {
		return s.eff[a] > s.eff[b]
	}
	return s.at(a).Viewer() < s.at(b).Viewer()
}

// filed reports whether the node at slot is currently in the level index.
func (s *nodeStore) filed(slot int32) bool { return s.pos[slot] >= 0 }

// freeSlotsAt returns the unused out-degree of the node at slot.
func (s *nodeStore) freeSlotsAt(slot int32) int32 {
	free := s.deg[slot] - s.kids[slot]
	if free < 0 {
		return 0
	}
	return free
}

// NewNode allocates a node of viewer record v from the tree's slab, with the
// given out-degree and the record's outbound capacity. It is the only way a
// node is made: the node is cache-contiguous with its tree-mates, and its
// slot is recycled on Recycle instead of waiting for the GC.
func (t *Tree) NewNode(v *Viewer, outDeg int) *Node {
	s := t.store
	slot := s.popSlot()
	n := s.at(slot)
	n.owner, n.slot = v, slot+1
	s.deg[slot], s.cap[slot] = int32(outDeg), v.Info.OutboundMbps
	return n
}

// Recycle returns a node's slot to the tree's slab. Callers invoke it only
// once the node has permanently left the tree (dropped stream, failed
// placement, cascade drop) and no reference to it survives; a node still
// tracked by the tree is left alone, which also makes double-recycling a
// no-op.
func (t *Tree) Recycle(n *Node) {
	if t.tracks(n) {
		return
	}
	t.store.release(n)
}

// tracks reports whether the tree tracks the node itself (not merely some
// node of the same viewer): its slot is bound and flagged.
func (t *Tree) tracks(n *Node) bool {
	return n.slot != 0 && t.store.tracked[n.slot-1]
}

// holds reports whether n is the node of a slot of this tree's slab. A
// handle whose slot was recycled (slot 0) fails it.
func (t *Tree) holds(n *Node) bool {
	s := t.store
	return n.slot != 0 && int(n.slot) <= s.slots() && s.at(n.slot-1) == n
}

// binds reports whether n is record v's live node in this tree: held,
// tracked, and owned by v.
func (t *Tree) binds(v *Viewer, n *Node) bool {
	return t.holds(n) && t.store.tracked[n.slot-1] && n.owner == v
}

// depthOf returns the level-index depth of a filed node (0 = CDN child).
func (t *Tree) depthOf(n *Node) int { return int(t.store.depth[n.slot-1]) }

// deg returns a bound node's out-degree.
func (t *Tree) deg(n *Node) int { return int(t.store.deg[n.slot-1]) }

// freeSlots returns a bound node's unused out-degree.
func (t *Tree) freeSlots(n *Node) int { return int(t.store.freeSlotsAt(n.slot - 1)) }

// SlabStats reports the slab's occupancy for footprint accounting: bound
// slots, free-list length, and total slot capacity.
type SlabStats struct {
	Live, Free, Cap int
}

// SlabStats returns the tree's slab occupancy.
func (t *Tree) SlabStats() SlabStats {
	s := t.store
	return SlabStats{
		Live: s.slots() - len(s.freeList),
		Free: len(s.freeList),
		Cap:  s.slots(),
	}
}
